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

A seed's column is supported on its k-hop ball, and its cost follows
the ball while the ball is small.  Hop 1 is read off S's own column u
(row u of S^T, built once per call) for every seed.  The unlearned
entities' columns are computed together as the rows of sparse blocks
of at most max(1, BLOCK_ENTRIES // n) seeds: each further hop is a
sparse product while the block holds at most SPARSE_SHARE of its
entries, and once it holds more the remaining hops run densely, over
sub-blocks of at most max(1, DENSE_ENTRIES // n) seeds, so memory never
grows as n times |UE|.  An expanding-mode pick's column is hop 1 read
off S^T, then k - 1 products over the whole graph; every dense hop is
propagate's own loop, graph.add_hops, and every route gives the bits of
propagate on the seed's one-hot vector.  Still O(n) per seed: the
soft-label similarity z @ z[u], computed in full so its rounding never
depends on the ball; the sparse fold gathers its ball entries once per
sub-block of seeds.  Still O(n) per greedy round: rescoring every
node, and in expanding mode the pick's hops after the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .fileio import write_text
from .graph import Graph, PropagationConfig, SparseOperator, add_hops, node_ids

SELECTION_MODES = ("expanding", "static")
# A block of seed columns takes its next hop as a sparse product while it
# holds at most this share of its entries, and runs its remaining hops
# densely after that.  At the CLI chain's shape (n = 4000, 26 neighbours,
# k = 3, |UE| = 320; one BLAS thread on a 2-core Xeon) hop 2 fills about
# 15% of a block, and selection took 125 ms at 0.05, 138 ms at 0 (dense
# from hop 2), and 234 ms with a 49 MB tracemalloc peak at 0.2 (hop 3
# sparse); the per-column route it replaced took 165-185 ms.
SPARSE_SHARE = 0.05
# Most entries one block of seed columns may hold (block width times n).
BLOCK_ENTRIES = 1 << 20
# Most entries one dense sub-block of the tail hops may hold.  At the
# same shape the tracemalloc peak of selection read 7 MB, against 37 MB
# with dense tails on whole blocks.
DENSE_ENTRIES = 1 << 15


def _check_soft_labels(z: np.ndarray, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != n:
        raise DataError(f"soft labels must be (n, classes) with n={n}, got {z.shape}")
    if not np.isfinite(z).all() or (z < 0.0).any():
        raise DataError("soft labels must be finite and nonnegative")
    if np.abs(z.sum(axis=1) - 1.0).max() > 1e-6:
        raise DataError("soft label rows must sum to 1 within 1e-6")
    return z


def _safe_ratio(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    out = np.zeros_like(top)
    np.divide(top, bottom, out=out, where=bottom > 0.0)
    return out


def _pick_column(op: SparseOperator, s_t: sp.csr_matrix, config: PropagationConfig,
                 u: int) -> np.ndarray:
    """Column u of Pi (propagate on e_u) with hop 1 read off row u of S^T.

    A one-hot csr_matvec adds S[v, u] * 1.0 to +0.0 terms, so the row of
    S^T is its exact result; the later hops are propagate's own.
    """
    w = config.weights
    e = np.zeros(op.n)
    e[u] = 1.0
    out = w[0] * e
    if config.k:
        cur = np.zeros(op.n)
        lo, hi = s_t.indptr[u], s_t.indptr[u + 1]
        cur[s_t.indices[lo:hi]] = s_t.data[lo:hi]
        out += w[1] * cur
        add_hops(op, config, out, cur, 1)
    return out


def _fold_column(agg, col: np.ndarray, sim: np.ndarray) -> None:
    """Fold one dense column and its similarities z @ z[u] into agg."""
    max_t, sum_t, max_f, sum_f = agg
    col_t = np.abs(col)
    col_f = col_t * sim
    np.maximum(max_t, col_t, out=max_t)
    np.maximum(max_f, col_f, out=max_f)
    np.add(sum_t, col_t, out=sum_t)
    np.add(sum_f, col_f, out=sum_f)


def _fold_sparse(agg, out: sp.csr_matrix, block: np.ndarray, z: np.ndarray) -> None:
    """Fold the block's columns, held as the sorted sparse rows of out.

    Each seed's similarities z @ z[u] are one full-length product, as
    for a dense column, written into rows of a buffer of at most
    DENSE_ENTRIES entries; every sub-block of seeds then gathers its
    ball's entries with one flat take.  np.maximum.at / np.add.at walk
    the entries row by row, so every node sees its seeds in order; the
    entries out skips are exact zeros.
    """
    max_t, sum_t, max_f, sum_f = agg
    n = z.shape[0]
    col_t = np.abs(out.data)
    sim = np.empty_like(col_t)
    width = max(1, DENSE_ENTRIES // n)
    buf = np.empty((min(width, block.size), n))
    for lo in range(0, block.size, width):
        hi = min(lo + width, block.size)
        for j, u in enumerate(block[lo:hi]):
            np.matmul(z, z[u], out=buf[j])
        first, last = out.indptr[lo], out.indptr[hi]
        row = np.repeat(np.arange(hi - lo), np.diff(out.indptr[lo:hi + 1]))
        # "clip" lets take write into out= without buffering; every index is in range
        np.take(buf, row * n + out.indices[first:last], out=sim[first:last], mode="clip")
    col_f = col_t * sim
    np.maximum.at(max_t, out.indices, col_t)
    np.add.at(sum_t, out.indices, col_t)
    np.maximum.at(max_f, out.indices, col_f)
    np.add.at(sum_f, out.indices, col_f)


def _fold_dense_tail(agg, op: SparseOperator, config: PropagationConfig, done: int,
                     cur: sp.csr_matrix, out: sp.csr_matrix, block: np.ndarray,
                     z: np.ndarray) -> None:
    """Run hops done+1..k densely, DENSE_ENTRIES at a time, and fold.

    cur and out hold hop `done` and the partial sum as sparse rows; each
    sub-block continues densely through add_hops, and each column is then
    folded in seed order with the ufuncs of a whole-graph column.
    """
    width = max(1, DENSE_ENTRIES // op.n)
    for lo in range(0, block.size, width):
        hi = min(lo + width, block.size)
        acc = out[lo:hi].T.toarray()
        add_hops(op, config, acc, cur[lo:hi].T.toarray(), done)
        for j, u in enumerate(block[lo:hi]):
            _fold_column(agg, acc[:, j], z @ z[u])


def _fold_seed_block(agg, op: SparseOperator, s_t: sp.csr_matrix,
                     config: PropagationConfig, seeds: np.ndarray, z: np.ndarray) -> None:
    """Fold the seeds' columns into agg, BLOCK_ENTRIES at a time.

    Gives the same bits as folding propagate's one-hot columns seed by
    seed.  Row b of `cur` is (S^l e_u)^T.  Hop 1 is row u of S^T, i.e.
    column u of S, which a one-hot csr_matvec returns exactly (it adds
    S[v, u] * 1.0 to +0.0 terms).  While the block is sparse, B @ S^T
    with sorted rows sums each entry over neighbours in ascending column
    order, as csr_matvec does, and the terms it skips are exact zeros;
    once more than SPARSE_SHARE of the block is filled, the remaining
    hops run densely.  Only a product needs sorted rows: the sums, the
    sparse fold and the dense conversion read each entry alone.
    """
    n, w, k = op.n, config.weights, config.k
    width = max(1, BLOCK_ENTRIES // n)
    for start in range(0, seeds.size, width):
        block = seeds[start:start + width]
        cur = sp.csr_matrix((np.ones(block.size), block, np.arange(block.size + 1)),
                            shape=(block.size, n))
        out = w[0] * cur
        done = 0
        while done < k and (done == 0 or cur.nnz <= SPARSE_SHARE * block.size * n):
            if done:
                cur.sort_indices()
            done += 1
            cur = s_t[block] if done == 1 else cur @ s_t
            out = out + w[done] * cur
        if done == k:
            _fold_sparse(agg, out, block, z)
        else:
            _fold_dense_tail(agg, op, config, done, cur, out, block, z)


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
    if not 0.0 <= theta < np.inf:
        raise ConfigError(f"theta must be finite and nonnegative, got {theta}")
    if budget < 0:
        raise ConfigError(f"budget must be nonnegative, got {budget}")
    n = op.n
    ue = node_ids(ue, n, "seed node")
    if ue.size == 0:
        raise ConfigError("unlearned entity set must not be empty")
    z = _check_soft_labels(soft_labels, n)
    s_t = op.matrix.T.tocsr()
    s_t.sort_indices()

    # running per-node max and sum of both channels over the seed set
    agg = max_t, sum_t, max_f, sum_f = tuple(np.zeros(n) for _ in range(4))
    _fold_seed_block(agg, op, s_t, config, ue, z)

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
            _fold_column(agg, _pick_column(op, s_t, config, best), z @ z[best])

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
    seeds = node_ids(ue, graph.n, "seed node")
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
