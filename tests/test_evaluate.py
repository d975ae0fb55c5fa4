import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import rankdata

from graphunlearn.errors import ConfigError, DataError, MaskError, MetricError
from graphunlearn.evaluate import (EdgeAttackReport, auc, edge_attack_run,
                                   f1_score, mia_attack,
                                   posterior_attack_scores,
                                   sample_noise_edges)
from graphunlearn.pipeline import Pipeline, RunConfig
from graphunlearn.unlearn import UnlearnRequest, apply_removal
from graphunlearn.datagen import SbmSpec, generate_sbm

from conftest import identity_head, make_graph


# ------------------------------------------------------------------------- auc

def test_auc_hand_computed():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert auc(scores, labels) == pytest.approx(0.75)


def test_auc_perfect_and_inverted():
    assert auc([1, 2, 3, 4], [0, 0, 1, 1]) == 1.0
    assert auc([4, 3, 2, 1], [0, 0, 1, 1]) == 0.0


def test_auc_all_ties_is_half():
    assert auc([5.0, 5.0, 5.0, 5.0], [0, 1, 0, 1]) == pytest.approx(0.5)


def test_auc_negating_scores_flips():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(50)
    y = rng.integers(0, 2, size=50)
    y[0], y[1] = 0, 1  # both classes present
    assert auc(-s, y) == pytest.approx(1.0 - auc(s, y))


def test_auc_requires_both_classes():
    with pytest.raises(MetricError):
        auc([1, 2], [1, 1])
    with pytest.raises(MetricError):
        auc([1, 2], [0, 0])


def rankdata_auc(scores, labels):
    """The rank-statistic AUC over scipy's average ranks."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    u = rankdata(scores)[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (labels.size - n_pos)))


AUC_SCORE_KINDS = {
    "continuous": lambda rng, m: rng.standard_normal(m),
    "integer ties": lambda rng, m: rng.integers(0, 4, size=m).astype(float),
    "rounded": lambda rng, m: np.round(rng.standard_normal(m), 1),
    "all equal": lambda rng, m: np.full(m, rng.standard_normal()),
    "signed zeros": lambda rng, m: rng.choice([-0.0, 0.0, 1.0, -1.0], size=m),
}


@pytest.mark.parametrize("kind", sorted(AUC_SCORE_KINDS))
def test_auc_bits_equal_rankdata_reference(kind):
    rng = np.random.default_rng(sorted(AUC_SCORE_KINDS).index(kind))
    for _ in range(300):
        m = int(rng.integers(2, 400))
        scores = AUC_SCORE_KINDS[kind](rng, m)
        labels = rng.integers(0, 2, size=m).astype(bool)
        labels[:2] = [False, True]
        rng.shuffle(labels)
        got = np.float64(auc(scores, labels)).tobytes()
        assert got == np.float64(rankdata_auc(scores, labels)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_rejects_non_finite_scores(bad):
    with pytest.raises(MetricError, match="finite"):
        auc([0.1, bad, 0.3, 0.4], [0, 1, 0, 1])


def test_auc_null_distribution_centers_at_half():
    rng = np.random.default_rng(1)
    inside = 0
    for _ in range(200):
        s = rng.standard_normal(160)
        y = np.zeros(160, dtype=int)
        y[:80] = 1
        if 0.4 <= auc(s, y) <= 0.6:
            inside += 1
    assert inside >= 190  # random scores almost always land near 0.5


# -------------------------------------------------------------------------- f1

def test_f1_basic_values():
    truth = np.array([0, 1, 2, 0, 1])
    assert f1_score(truth, truth, np.ones(5, dtype=bool)) == 1.0
    pred = np.array([1, 2, 0, 1, 2])
    assert f1_score(pred, truth, np.ones(5, dtype=bool)) == 0.0
    pred2 = truth.copy()
    pred2[0] = 2
    assert f1_score(pred2, truth, np.arange(5) < 4) == pytest.approx(0.75)


def test_f1_errors():
    with pytest.raises(MetricError):
        f1_score([0], [0], np.zeros(1, dtype=bool))
    with pytest.raises(MetricError):
        f1_score([0, 0], [0, -1], np.ones(2, dtype=bool))
    # only a bool mask of the labels' shape names the scored nodes
    with pytest.raises(MaskError):
        f1_score([0, 0], [0, 0], [0, 1])
    with pytest.raises(MaskError):
        f1_score([0, 0], [0, 0], np.ones(3, dtype=bool))


# --------------------------------------------------------------- attack scores

def test_posterior_scores_confident_beats_uniform():
    confident = np.array([[0.98, 0.01, 0.01]])
    uniform = np.full((1, 3), 1 / 3)
    assert posterior_attack_scores(confident)[0] > posterior_attack_scores(uniform)[0]


def test_posterior_scores_formula():
    soft = np.array([[0.5, 0.25, 0.25]])
    entropy = -(0.5 * np.log(0.5) + 2 * 0.25 * np.log(0.25))
    assert posterior_attack_scores(soft)[0] == pytest.approx(0.5 - entropy)


# ------------------------------------------------------------------ mia_attack

def test_mia_uniform_model_has_no_signal():
    # zero weights: posteriors identical everywhere -> all scores tie
    params = identity_head(np.zeros((2, 3)))
    x = np.abs(np.random.default_rng(2).standard_normal((40, 2)))
    rep = mia_attack(params, x, ue=np.arange(10), non_member_pool=np.arange(10, 40),
                     seed=0)
    assert rep.auc == pytest.approx(0.5)
    assert rep.member_count == rep.non_member_count == 10


def test_mia_perfectly_memorized_members_score_one():
    # members get huge logits (confident), non-members zero logits (uniform)
    x = np.zeros((20, 2))
    x[:10, 0] = 50.0
    params = identity_head(np.array([[1.0, -1.0], [0.0, 0.0]]))
    rep = mia_attack(params, x, ue=np.arange(10), non_member_pool=np.arange(10, 20),
                     seed=0)
    assert rep.auc == 1.0


def test_mia_equal_sizes_and_pool_dedup():
    params = identity_head(np.zeros((2, 2)))
    x = np.zeros((30, 2))
    pool = np.concatenate([np.arange(30), np.arange(30)])  # dupes collapse
    rep = mia_attack(params, x, ue=[0, 1, 2], non_member_pool=pool, seed=1)
    assert rep.non_member_count == 3
    assert set(rep.non_member_scores) & {0, 1, 2} == set()


def test_mia_deterministic_in_seed():
    params = identity_head(np.random.default_rng(3).standard_normal((2, 2)))
    x = np.abs(np.random.default_rng(4).standard_normal((50, 2)))
    a = mia_attack(params, x, np.arange(5), np.arange(5, 50), seed=9)
    b = mia_attack(params, x, np.arange(5), np.arange(5, 50), seed=9)
    assert a.auc == b.auc
    assert a.non_member_scores == b.non_member_scores


def test_mia_pool_too_small_or_no_members():
    params = identity_head(np.zeros((2, 2)))
    x = np.zeros((10, 2))
    with pytest.raises(ConfigError):
        mia_attack(params, x, np.arange(6), np.arange(6, 10), seed=0)
    with pytest.raises(ConfigError):
        mia_attack(params, x, [], np.arange(10), seed=0)


@pytest.mark.parametrize("members, pool, error", [
    ([-1, 2], np.arange(3, 10), IndexError),   # -1 used to probe the last row
    ([0, 10], np.arange(2, 10), IndexError),
    ([0.5, 3.7], np.arange(5, 10), ConfigError),  # used to run as members 0 and 3
    ([0, 1], [5, -1, 6], IndexError),
    ([0, 1], [5.5, 6, 7], ConfigError),
], ids=["member-minus-one", "member-past-n", "member-fraction", "pool-minus-one",
        "pool-fraction"])
def test_mia_rejects_bad_node_ids(members, pool, error):
    params = identity_head(np.zeros((2, 2)))
    x = np.zeros((10, 2))
    with pytest.raises(error, match="outside" if error is IndexError else "integers"):
        mia_attack(params, x, members, pool, seed=0)


# ----------------------------------------------------------- noise edge sampler

def labeled_graph(n=20, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    return make_graph(n, [(0, 1), (2, 3)], labels=labels,
                      train=np.ones(n, dtype=bool), test=None)


def test_sample_noise_edges_are_absent_and_cross_label():
    g = labeled_graph()
    edges = sample_noise_edges(g, count=5, seed=0)
    assert len(edges) == 5
    for u, v in edges:
        assert u < v
        assert not g.has_edge(u, v)
        assert g.labels[u] != g.labels[v]


def test_sample_noise_edges_deterministic():
    g = labeled_graph()
    assert sample_noise_edges(g, 4, seed=5) == sample_noise_edges(g, 4, seed=5)


def test_sample_noise_edges_needs_two_labels():
    g = make_graph(6, [(0, 1)], labels=np.zeros(6, dtype=int),
                   train=np.ones(6, dtype=bool), test=None)
    with pytest.raises(DataError):
        sample_noise_edges(g, 1, seed=0)


def test_sample_noise_edges_gives_up_when_saturated():
    # complete bipartite cross-label graph: no absent cross edge remains
    labels = np.array([0, 0, 1, 1])
    g = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)], labels=labels,
                   train=np.ones(4, dtype=bool), test=None)
    with pytest.raises(DataError):
        sample_noise_edges(g, 1, seed=0)


# -------------------------------------------------------------- edge attack run

def tiny_pipeline():
    cfg = RunConfig(epochs=30, k=1, scheme="s2gc",
                    finetune_epochs=5, lam=0.5, theta=0.0,
                    budget_multiplier=1.0)
    return Pipeline(cfg, seed=0)


def test_edge_attack_rejects_bad_rho():
    g = generate_sbm(SbmSpec(n=40, classes=2, p_in=0.3, p_out=0.05,
                             num_features=4, separation=2.0, train_fraction=0.8), seed=0)
    with pytest.raises(ConfigError):
        edge_attack_run(g, rho=0.0, pipeline=tiny_pipeline(), seed=0)
    with pytest.raises(ConfigError):
        edge_attack_run(g, rho=-0.2, pipeline=tiny_pipeline(), seed=0)


def test_edge_attack_rejects_edgeless_graph():
    g = make_graph(10, [], labels=np.arange(10) % 2,
                   train=np.arange(10) < 8)
    with pytest.raises(ConfigError):
        edge_attack_run(g, rho=0.3, pipeline=tiny_pipeline(), seed=0)


def test_edge_attack_report_and_clean_graph_untouched():
    # big enough that the forgetting targets have non-training nodes to draw from
    g = generate_sbm(SbmSpec(n=200, classes=2, p_in=0.04, p_out=0.01,
                             num_features=4, separation=2.5, train_fraction=0.8), seed=1)
    before_indices = g.indices.copy()
    before_features = g.features.copy()
    rep = edge_attack_run(g, rho=0.05, pipeline=tiny_pipeline(), seed=3)
    assert np.array_equal(g.indices, before_indices)
    assert np.array_equal(g.features, before_features)
    assert rep.num_injected == int(np.ceil(0.05 * g.num_edges))
    assert len(rep.injected_edges) == rep.num_injected
    for score in (rep.f1_clean, rep.f1_poisoned, rep.f1_unlearned):
        assert 0.0 <= score <= 1.0
    # every injected edge is a valid cross-label non-edge of the clean graph
    for u, v in rep.injected_edges:
        assert not g.has_edge(u, v)
        assert g.labels[u] != g.labels[v]


class _LeakyPipeline:
    """Trains nothing and removes only the first requested edge."""

    def train(self, graph):
        return SimpleNamespace(graph=graph)

    def unlearn(self, state, request):
        first = UnlearnRequest(kind="edge", edges=request.edges[:1])
        return SimpleNamespace(graph=apply_removal(state.graph, first))

    def test_f1(self, state):
        return 0.0


def test_edge_attack_names_first_surviving_injected_edge():
    g = labeled_graph()
    injected = sample_noise_edges(g, count=3, seed=7)
    u, v = injected[1]
    with pytest.raises(DataError, match=rf"injected edge \({u}, {v}\) survived unlearning"):
        # ceil(2.5) = 3 edges, drawn with the same seed as above
        edge_attack_run(g, rho=2.5 / g.num_edges, pipeline=_LeakyPipeline(), seed=7)


# --------------------------------------------------------------------- reports

def test_attack_report_to_dict_round_trips_json():
    params = identity_head(np.zeros((2, 2)))
    x = np.zeros((10, 2))
    rep = mia_attack(params, x, [0, 1], np.arange(2, 10), seed=0)
    data = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert data["auc"] == pytest.approx(0.5)
    assert data["member_count"] == 2
    assert set(data) == {"auc", "member_count", "non_member_count",
                         "member_scores", "non_member_scores", "score_feature"}


def test_edge_attack_report_to_dict_json_bytes():
    rep = EdgeAttackReport(rho=0.2, num_injected=2, injected_edges=[(0, 3), [1, 4]],
                           f1_clean=0.75, f1_poisoned=0.5, f1_unlearned=0.625)
    assert json.dumps(rep.to_dict(), sort_keys=True) == (
        '{"f1_clean": 0.75, "f1_poisoned": 0.5, "f1_unlearned": 0.625, '
        '"injected_edges": [[0, 3], [1, 4]], "num_injected": 2, "rho": 0.2}')
