"""Attack-based evaluation: membership inference, utility, edge attacks.

The membership attack scores every probe node from the model's posterior
(max probability plus negative entropy: confident, low-entropy nodes
look like training members) and reports the AUC of members against an
equal-size sample of non-members.  An AUC near 0.5 means the attacker
cannot tell revoked entities from nodes that were never trained on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, MetricError
from .graph import Graph, _as_mask, build_graph, edge_keys, node_ids
from .model import ModelParams, predict
from .unlearn import UnlearnRequest


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties count 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs at least one positive and one negative")
    if not np.isfinite(scores).all():
        raise MetricError("AUC needs finite scores")
    # average ranks: a tie group at sorted positions [start, end) shares
    # rank (start + end + 1) / 2, a half-integer and so exact in float64
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    start, end = bounds[:-1], bounds[1:]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((start + end + 1) / 2.0, end - start)
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def f1_score(pred_labels, true_labels, mask) -> float:
    """Micro-averaged F1 over the nodes of a bool mask (equals accuracy here)."""
    truth = np.asarray(true_labels, dtype=np.int64)
    ids = np.flatnonzero(_as_mask(truth.size, mask, "mask"))
    if ids.size == 0:
        raise MetricError("cannot score an empty node set")
    truth = truth[ids]
    if np.any(truth < 0):
        raise MetricError("masked nodes must all carry labels")
    pred = np.asarray(pred_labels, dtype=np.int64)[ids]
    return float(np.mean(pred == truth))


def posterior_attack_scores(soft: np.ndarray) -> np.ndarray:
    """Attack feature per row: max posterior plus negative entropy."""
    soft = np.atleast_2d(np.asarray(soft, dtype=np.float64))
    safe = np.maximum(soft, 1e-300)
    entropy = -(safe * np.log(safe)).sum(axis=1)
    return soft.max(axis=1) - entropy


@dataclass
class AttackReport:
    """Outcome of one membership-inference probe."""

    auc: float
    member_count: int
    non_member_count: int
    member_scores: dict
    non_member_scores: dict
    score_feature: str = "max posterior + negative entropy"

    def to_dict(self) -> dict:
        return asdict(self)


def mia_attack(params: ModelParams, x_probe: np.ndarray, ue,
               non_member_pool, seed: int) -> AttackReport:
    """Membership inference against the given model.

    Members are the unlearned entities; non-members are an equal-size
    seeded sample from the pool (nodes the model never trained on).
    x_probe holds the propagated rows the attacker queries with, which
    for revoked entities is the data as it looked before removal.
    """
    x_probe = np.asarray(x_probe, dtype=np.float64)
    ue = node_ids(ue, x_probe.shape[0], "member")
    pool = node_ids(non_member_pool, x_probe.shape[0], "non-member pool node")
    pool = pool[~np.isin(pool, ue)]
    if ue.size == 0:
        raise ConfigError("membership attack needs at least one member")
    if pool.size < ue.size:
        raise ConfigError(f"non-member pool has {pool.size} nodes, need {ue.size}")
    rng = np.random.default_rng(seed)
    non_members = np.sort(rng.choice(pool, size=ue.size, replace=False))

    probes = np.concatenate([ue, non_members])
    soft = predict(params, x_probe[probes])
    scores = posterior_attack_scores(soft)
    labels = np.concatenate([np.ones(ue.size, bool), np.zeros(non_members.size, bool)])
    return AttackReport(
        auc=auc(scores, labels),
        member_count=int(ue.size), non_member_count=int(non_members.size),
        member_scores={int(v): float(s) for v, s in zip(ue, scores[:ue.size])},
        non_member_scores={int(v): float(s) for v, s in zip(non_members, scores[ue.size:])})


@dataclass
class EdgeAttackReport:
    """Utility before, under, and after a noisy-edge injection."""

    rho: float
    num_injected: int
    injected_edges: list
    f1_clean: float
    f1_poisoned: float
    f1_unlearned: float

    def to_dict(self) -> dict:
        return asdict(self)


def sample_noise_edges(graph: Graph, count: int, seed: int) -> list:
    """Draw `count` absent edges between different-label training nodes."""
    train = graph.train_nodes()
    labels = graph.labels
    if np.unique(labels[train][labels[train] >= 0]).size < 2:
        raise DataError("need at least two labels among training nodes to cross")
    rng = np.random.default_rng(seed)
    n = graph.n
    existing = set(edge_keys(graph.undirected_edges(), n).tolist())
    train, labels = train.tolist(), labels.tolist()
    chosen: set = set()
    attempts = 0
    limit = 200 * count + 1000
    while len(chosen) < count:
        attempts += 1
        if attempts > limit:
            raise DataError(f"could not place {count} cross-label edges after {limit} tries")
        i, j = rng.integers(len(train), size=2).tolist()
        u, v = train[i], train[j]
        if u == v or labels[u] == labels[v] or labels[u] < 0 or labels[v] < 0:
            continue
        key = min(u, v) * n + max(u, v)  # edge_keys' key, in Python ints
        if key in chosen or key in existing:
            continue
        chosen.add(key)
    return [divmod(key, n) for key in sorted(chosen)]


def edge_attack_run(graph: Graph, rho: float, pipeline, seed: int) -> EdgeAttackReport:
    """Poison the graph with noisy edges, unlearn exactly those edges.

    pipeline must expose train(graph) -> state, unlearn(state, request)
    -> state and test_f1(state) -> float.  Reports test F1 on the clean
    graph, the poisoned graph, and after unlearning the injected edges.
    """
    if rho <= 0.0:
        raise ConfigError(f"attack ratio must be positive, got {rho}")
    count = math.ceil(rho * graph.num_edges)
    if count == 0:
        raise ConfigError("attack ratio selects zero edges on this graph")
    injected = sample_noise_edges(graph, count, seed)

    poisoned = build_graph(graph.n, np.vstack([graph.undirected_edges(), injected]),
                           graph.features, graph.labels, graph.train_mask, graph.test_mask)

    clean_state = pipeline.train(graph)
    poisoned_state = pipeline.train(poisoned)
    request = UnlearnRequest(kind="edge", edges=injected)
    unlearned_state = pipeline.unlearn(poisoned_state, request)

    after = unlearned_state.graph
    survived = np.flatnonzero(np.isin(edge_keys(injected, after.n),
                                      edge_keys(after.undirected_edges(), after.n)))
    if survived.size:
        u, v = injected[survived[0]]
        raise DataError(f"injected edge ({u}, {v}) survived unlearning")

    return EdgeAttackReport(rho=float(rho), num_injected=count,
                            injected_edges=[list(e) for e in injected],
                            f1_clean=pipeline.test_f1(clean_state),
                            f1_poisoned=pipeline.test_f1(poisoned_state),
                            f1_unlearned=pipeline.test_f1(unlearned_state))
