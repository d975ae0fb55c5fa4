import tracemalloc

import numpy as np
import pytest

from graphunlearn.datagen import SbmSpec, generate_sbm
from graphunlearn.errors import ConfigError

from conftest import generate_sbm_materialized
from test_acceptance import EDGE_SPEC


def spec(**kw):
    base = dict(n=60, classes=3, p_in=0.5, p_out=0.05,
                num_features=4, separation=2.0, train_fraction=0.8)
    base.update(kw)
    return SbmSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigError):
        spec(n=0)
    with pytest.raises(ConfigError):
        spec(classes=0)
    with pytest.raises(ConfigError):
        spec(num_features=2)  # fewer axes than classes
    with pytest.raises(ConfigError):
        spec(p_in=1.5)
    with pytest.raises(ConfigError):
        spec(p_out=-0.1)
    with pytest.raises(ConfigError):
        spec(train_fraction=0.0)
    with pytest.raises(ConfigError):
        spec(train_fraction=1.0)


def test_edgeless_graph_when_probabilities_zero():
    g = generate_sbm(spec(p_in=0.0, p_out=0.0), seed=0)
    assert g.num_edges == 0
    assert g.n == 60


def test_complete_intra_class_when_p_in_one():
    g = generate_sbm(SbmSpec(n=4, classes=2, p_in=1.0, p_out=0.0,
                             num_features=2, separation=1.0, train_fraction=0.8), seed=3)
    for u in range(4):
        for v in range(u + 1, 4):
            assert g.has_edge(u, v) == (g.labels[u] == g.labels[v])


def test_class_balance_within_one():
    g = generate_sbm(spec(n=61), seed=1)
    counts = np.bincount(g.labels, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_deterministic_in_seed():
    a = generate_sbm(spec(), seed=42)
    b = generate_sbm(spec(), seed=42)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.train_mask, b.train_mask)
    c = generate_sbm(spec(), seed=43)
    assert not np.array_equal(a.features, c.features)


def test_edge_density_is_close_to_probabilities():
    s = SbmSpec(n=300, classes=2, p_in=0.2, p_out=0.02,
                num_features=2, separation=1.0, train_fraction=0.8)
    intra = inter = intra_n = inter_n = 0
    for seed in range(5):
        g = generate_sbm(s, seed)
        labels = g.labels
        same = labels[:, None] == labels[None, :]
        adj = g.adjacency().toarray() > 0
        iu = np.triu_indices(300, k=1)
        intra += int(adj[iu][same[iu]].sum())
        intra_n += int(same[iu].sum())
        inter += int(adj[iu][~same[iu]].sum())
        inter_n += int((~same[iu]).sum())
    assert abs(intra / intra_n - 0.2) < 0.2 * 0.2
    assert abs(inter / inter_n - 0.02) < 0.02 * 0.2


def test_feature_means_shifted_by_class():
    s = SbmSpec(n=900, classes=3, p_in=0.01, p_out=0.01,
                num_features=5, separation=3.0, train_fraction=0.8)
    g = generate_sbm(s, seed=7)
    for c in range(3):
        rows = g.features[g.labels == c]
        centered = rows.mean(axis=0)
        assert abs(centered[c] - 3.0) < 0.25
        off_axes = [a for a in range(5) if a != c]
        assert np.abs(centered[off_axes]).max() < 0.25


def test_train_test_split_sizes_and_disjointness():
    g = generate_sbm(spec(n=100, train_fraction=0.8), seed=5)
    assert g.train_mask.sum() == 80
    assert g.test_mask.sum() == 20
    assert not np.any(g.train_mask & g.test_mask)


def test_uniform_block_probability_allowed():
    # degenerate homophily (p_in == p_out) is a legitimate null model
    g = generate_sbm(spec(p_in=0.1, p_out=0.1), seed=2)
    assert g.n == 60


def test_homophily_increases_with_p_in():
    def intra_fraction(p_in):
        g = generate_sbm(spec(n=200, p_in=p_in, p_out=0.02), seed=11)
        e = g.undirected_edges()
        same = g.labels[e[:, 0]] == g.labels[e[:, 1]]
        return same.mean()
    assert intra_fraction(0.3) > intra_fraction(0.05)


GRAPH_ARRAYS = ("indptr", "indices", "features", "labels", "train_mask", "test_mask")


@pytest.mark.parametrize("kw, seeds", [
    (dict(n=3, classes=5, p_in=1.0, p_out=1.0, num_features=5), (0, 1)),
    (dict(n=7, classes=9, p_in=0.5, p_out=0.0, num_features=9), (0, 1)),
    (dict(n=40, classes=3, p_in=1.0, p_out=0.0, num_features=3), (0, 1)),
    (dict(n=40, classes=3, p_in=0.0, p_out=1.0, num_features=3), (0, 1)),
    (dict(n=50, classes=1, p_in=0.3, p_out=0.3, num_features=2), (0, 1)),
    # 600-member classes: blocks of 179 700 and 360 000 pairs, several chunks each
    (dict(n=1200, classes=2, p_in=0.01, p_out=0.002, num_features=2), (3,)),
    (EDGE_SPEC, (0, 1, 2, 3)),
    (dict(n=4000, classes=4, p_in=0.02, p_out=0.002, num_features=64), (1,)),
], ids=["classes-above-n-p-1", "classes-above-n", "p-in-1", "p-out-1", "one-class",
        "blocks-above-one-chunk", "edge-spec", "cli-chain-shape"])
def test_streamed_draws_match_materialized_reference(kw, seeds):
    spec = SbmSpec(**{"separation": 2.0, "train_fraction": 0.8, **kw})
    for seed in seeds:
        got, want = generate_sbm(spec, seed), generate_sbm_materialized(spec, seed)
        for name in GRAPH_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f"seed {seed}: {name}"


def test_generation_memory_does_not_grow_with_pair_count():
    # 128M pairs at n = 16000: under tracemalloc, materialized index
    # arrays and draws peak at about 520 MB, the streamed draws at 36 MB
    spec = SbmSpec(n=16000, classes=4, p_in=0.006, p_out=0.0006667,
                   num_features=4, separation=1.0, train_fraction=0.8)
    tracemalloc.start()
    try:
        graph = generate_sbm(spec, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * graph.num_edges / graph.n == pytest.approx(32.0, rel=0.05)
    assert peak < 64 * 2 ** 20
