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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import ConfigError, DataError
from .fileio import write_text
from .graph import Graph, PropagationConfig, SparseOperator, propagation_column

SELECTION_MODES = ("expanding", "static")


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


@dataclass(frozen=True)
class HieSelection:
    """Greedy selection outcome: nodes in pick order with their scores."""

    nodes: np.ndarray
    scores: np.ndarray


def select_hie(op: SparseOperator, config: PropagationConfig, ue,
               soft_labels: np.ndarray, theta: float, budget: int,
               mode: str = "expanding") -> HieSelection:
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


def khop_hie_capped(graph: Graph, ue, hops: int, budget: int) -> np.ndarray:
    """k-hop neighborhood trimmed to a budget, closest hops first.

    Within one hop level nodes are taken in id order.  This keeps the
    naive neighborhood baseline comparable to a budgeted greedy run.
    """
    if hops < 0 or budget < 0:
        raise ConfigError(f"hops and budget must be nonnegative, got {hops} and {budget}")
    seeds = np.unique(np.asarray(ue, dtype=np.int64))
    if seeds.size and (seeds[0] < 0 or seeds[-1] >= graph.n):
        raise IndexError(f"seed node outside [0, {graph.n})")
    # hop count from the nearest seed, inf beyond `hops` or unreachable
    dist = dijkstra(graph.adjacency(), indices=seeds, unweighted=True,
                    limit=hops, min_only=True)
    inside = np.flatnonzero((dist > 0) & (dist <= hops))
    order = np.lexsort((inside, dist[inside]))
    return np.sort(inside[order][:budget])


def write_hie_csv(selection: HieSelection, path) -> None:
    """Export the selection as CSV with header node,score,round."""
    lines = ["node,score,round\n"]
    for i, (node, score) in enumerate(zip(selection.nodes, selection.scores), start=1):
        lines.append(f"{node},{float(score)!r},{i}\n")
    write_text(path, "".join(lines))
