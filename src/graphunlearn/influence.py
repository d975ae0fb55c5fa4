"""Influence scoring and high-influenced-entity (HIE) selection.

For a seed node u the topology channel is the absolute u-th column of
Pi = sum_l w_l S^l, i.e. how much mass propagation carries from u to
every other node.  The feature channel additionally weighs that mass by
the soft-label agreement <Z_v, Z_u>.  Per-channel scores are normalized
per node by the total influence received from the whole seed set, then
aggregated by a max over seeds:

    tilde(v, S) = max_{u in S} I(v, u) / sum_{o in S} I(v, o)

The combined score tilde_t + tilde_f lies in [0, 2].  select_hie keeps
the max and the sum of both channels as running per-node aggregates,
so each seed's column is computed once.  Selection is a greedy loop
that picks the best-scoring candidate above a threshold until the
budget runs out; in expanding mode the pick joins the seed set before
the next round, in static mode the seeds stay the original unlearned
entities.

A seed's column is supported on its k-hop ball.  When the balls of the
unlearned entities are small, their columns are computed together as
the rows of one sparse block (k sparse-sparse products whose cost
follows the balls) and folded into the aggregates entry by entry.  The
rule reads the input alone: the mean over seeds of min(n, walks of
length k from the seed) must be below BLOCK_BALL_FRACTION of n;
otherwise each seed runs k products over the whole graph, which is
faster when the balls cover most of it.  A block takes at most
max(1, BLOCK_ENTRIES // n) seeds, so it holds at most max(n,
BLOCK_ENTRIES) entries and its memory never grows as n times |UE|.
Both routes give the same bits.  Still O(n) per seed on either route:
the soft-label similarity z @ z[u], computed in full so its rounding
never depends on the ball.  Still O(n) per greedy round: rescoring
every node, and in expanding mode the pick's own column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .fileio import write_text
from .graph import Graph, PropagationConfig, SparseOperator, propagation_column

SELECTION_MODES = ("expanding", "static")
# The unlearned entities' columns are computed as one sparse block when
# the mean walk-count bound on their k-hop balls is below this share of
# the graph.  On SBM graphs (n 2000-4000, |UE| = n/12, one BLAS thread
# on a 2-core Xeon) the block was 1.4-7.7x faster at every bound up to
# 0.76, and 10-29% slower where the bound saturated at 1 with k = 3.
BLOCK_BALL_FRACTION = 0.5
# Most entries one block of seed columns may hold (chunk width times n).
BLOCK_ENTRIES = 1 << 20


def _check_soft_labels(z: np.ndarray, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != n:
        raise DataError(f"soft labels must be (n, classes) with n={n}, got {z.shape}")
    if np.abs(z.sum(axis=1) - 1.0).max() > 1e-6:
        raise DataError("soft label rows must sum to 1 within 1e-6")
    return z


def _safe_ratio(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    out = np.zeros_like(top)
    np.divide(top, bottom, out=out, where=bottom > 0.0)
    return out


def _ball_fraction(op: SparseOperator, k: int, seeds: np.ndarray) -> float:
    """Mean over seeds of min(n, walks of length k from the seed) / n.

    The walk count (P^(k-1) rownnz)[u], with P the 0/1 pattern of S,
    bounds the size of u's k-hop ball, the support of its column.
    """
    if k == 0:
        return 1.0 / op.n
    s = op.matrix
    pattern = sp.csr_matrix((np.ones(s.nnz), s.indices, s.indptr), shape=s.shape)
    walks = np.diff(s.indptr).astype(np.float64)
    for _ in range(k - 1):
        walks = pattern @ walks
    return float(np.minimum(walks[seeds], op.n).mean()) / op.n


def _fold_seed_block(op: SparseOperator, config: PropagationConfig, seeds: np.ndarray,
                     z: np.ndarray, max_t, sum_t, max_f, sum_f) -> None:
    """Fold the seeds' columns into the aggregates, computed as sparse rows.

    Gives the same bits as folding propagation_column seed by seed.  Row
    b of `cur` is (S^l e_u)^T; B @ S^T with sorted rows sums each entry
    over neighbours in ascending column order, as csr_matvec does, and
    the terms it skips are exact zeros.  np.maximum.at / np.add.at walk
    the entries row by row, so every node sees its seeds in order.
    """
    n, w = op.n, config.weights
    s_t = op.matrix.T.tocsr()
    s_t.sort_indices()
    width = max(1, BLOCK_ENTRIES // n)
    for start in range(0, seeds.size, width):
        chunk = seeds[start:start + width]
        cur = sp.csr_matrix((np.ones(chunk.size), chunk, np.arange(chunk.size + 1)),
                            shape=(chunk.size, n))
        out = w[0] * cur
        for l in range(1, config.k + 1):
            cur = cur @ s_t
            cur.sort_indices()
            out = out + w[l] * cur
        col_t = np.abs(out.data)
        sim = np.empty_like(col_t)
        for b, u in enumerate(chunk):
            lo, hi = out.indptr[b], out.indptr[b + 1]
            sim[lo:hi] = (z @ z[u])[out.indices[lo:hi]]
        col_f = col_t * sim
        np.maximum.at(max_t, out.indices, col_t)
        np.add.at(sum_t, out.indices, col_t)
        np.maximum.at(max_f, out.indices, col_f)
        np.add.at(sum_f, out.indices, col_f)


@dataclass(frozen=True)
class HieSelection:
    """Greedy selection outcome: nodes in pick order with their scores."""

    nodes: np.ndarray
    scores: np.ndarray


def select_hie(op: SparseOperator, config: PropagationConfig, ue,
               soft_labels: np.ndarray, theta: float, budget: int,
               mode: str) -> HieSelection:
    """Greedily pick up to `budget` nodes whose combined score clears theta.

    Every round scores all remaining candidates against the current seed
    set and takes the argmax (ties go to the smallest node id).  In
    expanding mode the pick is added to the seed set, which is what makes
    a later, larger budget reproduce the smaller run as a prefix; static
    mode keeps the seed set fixed at the unlearned entities.

    Args:
        op, config: propagation operator and weights used for influence.
        ue: unlearned entity node ids, the initial seed set.
        soft_labels: (n, classes) prediction matrix, rows sum to 1.
        theta: acceptance threshold; combined scores never exceed 2, so
            anything above that selects nothing.
        budget: maximum number of nodes to select.
        mode: "expanding" or "static".
    """
    if mode not in SELECTION_MODES:
        raise ConfigError(f"selection mode must be one of {SELECTION_MODES}, got {mode!r}")
    if theta < 0.0:
        raise ConfigError(f"theta must be nonnegative, got {theta}")
    if budget < 0:
        raise ConfigError(f"budget must be nonnegative, got {budget}")
    n = op.n
    ue = np.unique(np.asarray(ue, dtype=np.int64))
    if ue.size == 0:
        raise ConfigError("unlearned entity set must not be empty")
    if ue.min() < 0 or ue.max() >= n:
        raise IndexError(f"seed node outside [0, {n})")
    z = _check_soft_labels(soft_labels, n)

    # running per-node aggregates over the current seed set
    sum_t = np.zeros(n)
    max_t = np.zeros(n)
    sum_f = np.zeros(n)
    max_f = np.zeros(n)

    def add_seed(u: int) -> None:
        col_t = np.abs(propagation_column(op, config, u))
        col_f = col_t * (z @ z[u])
        np.maximum(max_t, col_t, out=max_t)
        np.maximum(max_f, col_f, out=max_f)
        np.add(sum_t, col_t, out=sum_t)
        np.add(sum_f, col_f, out=sum_f)

    if _ball_fraction(op, config.k, ue) < BLOCK_BALL_FRACTION:
        _fold_seed_block(op, config, ue, z, max_t, sum_t, max_f, sum_f)
    else:
        for u in ue:
            add_seed(int(u))

    candidate = np.ones(n, dtype=bool)
    candidate[ue] = False
    picked, picked_scores = [], []
    for _ in range(budget):
        score = _safe_ratio(max_t, sum_t) + _safe_ratio(max_f, sum_f)
        score[~candidate] = -1.0  # scores are >= 0, so -1 never wins
        best = int(np.argmax(score))  # first max: smallest node id on ties
        if score[best] < theta:
            break
        picked.append(best)
        picked_scores.append(float(score[best]))
        candidate[best] = False
        if mode == "expanding":
            add_seed(best)

    return HieSelection(nodes=np.asarray(picked, dtype=np.int64),
                        scores=np.asarray(picked_scores, dtype=np.float64))


def khop_hie_capped(graph: Graph, ue, hops: int, budget: int) -> HieSelection:
    """k-hop neighborhood trimmed to a budget, closest hops first.

    Nodes come in pick order: by hop, then by id within one hop level,
    and each scores its hop count.  This keeps the naive neighborhood
    baseline comparable to a budgeted greedy run.
    """
    # imported here so that loading the library does not load csgraph
    from scipy.sparse.csgraph import dijkstra

    if hops < 0 or budget < 0:
        raise ConfigError(f"hops and budget must be nonnegative, got {hops} and {budget}")
    seeds = np.unique(np.asarray(ue, dtype=np.int64))
    if seeds.size and (seeds[0] < 0 or seeds[-1] >= graph.n):
        raise IndexError(f"seed node outside [0, {graph.n})")
    # hop count from the nearest seed, inf beyond `hops` or unreachable
    dist = dijkstra(graph.adjacency(), indices=seeds, unweighted=True,
                    limit=hops, min_only=True)
    inside = np.flatnonzero((dist > 0) & (dist <= hops))
    picked = inside[np.lexsort((inside, dist[inside]))][:budget]
    return HieSelection(nodes=picked, scores=dist[picked])


def write_hie_csv(selection: HieSelection, path) -> None:
    """Export the selection as CSV with header node,score,round."""
    lines = ["node,score,round\n"]
    for i, (node, score) in enumerate(zip(selection.nodes, selection.scores), start=1):
        lines.append(f"{node},{float(score)!r},{i}\n")
    write_text(path, "".join(lines))
