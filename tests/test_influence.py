import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphunlearn import influence
from graphunlearn.datagen import SbmSpec, generate_sbm
from graphunlearn.errors import ConfigError, DataError
from graphunlearn.evaluate import sample_noise_edges
from graphunlearn.graph import PropagationConfig, build_graph, normalized_adjacency
from graphunlearn.influence import (SELECTION_MODES, HieSelection, khop_hie_capped, select_hie,
                                    write_hie_csv)

from graphunlearn.pipeline import RunConfig

from conftest import (bfs_distances, dense_pi, fold_sparse_per_seed, influence_oracle,
                      make_graph, random_connected_graph, select_hie_per_column,
                      walk_pi_matrix)
from test_acceptance import EDGE_CONFIG, EDGE_RHOS, EDGE_SPEC


def one_hot(labels, c):
    z = np.zeros((len(labels), c))
    z[np.arange(len(labels)), labels] = 1.0
    return z


def rank_all(op, cfg, ue, z):
    """Every candidate in pick order, scored against the fixed seed set."""
    return select_hie(op, cfg, ue, z, theta=0.0, budget=op.n - np.unique(ue).size,
                      mode="static")


# ----------------------------------------------------------- topology channel

def test_topology_influence_path3_one_step():
    # columns of S on the path: Pi[:, 0] = [1/2, 1/3, 0], Pi[:, 2] = [0, 1/3, 1/2];
    # node 1 gets max 1/3 over sum 2/3 per channel
    g = make_graph(3, [(0, 1), (1, 2)])
    op = normalized_adjacency(g, r=1.0)
    sel = select_hie(op, PropagationConfig.sgc(1), [0, 2], one_hot([0, 0, 0], 1),
                     theta=0.0, budget=1, mode="static")
    assert list(sel.nodes) == [1]
    assert sel.scores[0] == pytest.approx(1.0, abs=1e-15)


def test_topology_influence_unreachable_is_zero():
    g = make_graph(4, [(0, 1)])  # 2, 3 disconnected from 0
    op = normalized_adjacency(g, r=1.0)
    sel = rank_all(op, PropagationConfig.s2gc(3), [0], one_hot([0, 0, 0, 0], 1))
    assert list(sel.nodes) == [1, 2, 3]
    assert list(sel.scores) == [2.0, 0.0, 0.0]


def test_topology_influence_matches_walk_enumeration():
    rng = np.random.default_rng(0)
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    cfg = PropagationConfig.s2gc(2)
    op = normalized_adjacency(g, r=1.0)
    pi = walk_pi_matrix(g, cfg.weights)
    z = rng.dirichlet(np.ones(3), size=5)
    for ue in ([0], [2], [0, 4], [1, 2]):
        sel = rank_all(op, cfg, ue, z)
        assert np.allclose(sel.scores, influence_oracle(pi, z, ue)[sel.nodes],
                           atol=1e-12)


# ------------------------------------------------------------ feature channel

def test_feature_influence_one_hot_same_class_equals_topology():
    # shared labels make both channels 0.5 at node 1 (see the path3 case)
    g = make_graph(3, [(0, 1), (1, 2)])
    op = normalized_adjacency(g, r=1.0)
    cfg = PropagationConfig.sgc(1)
    sel = select_hie(op, cfg, [0, 2], one_hot([1, 1, 1], 3), theta=0.0,
                     budget=1, mode="static")
    assert sel.scores[0] == pytest.approx(2 * 0.5, abs=1e-15)


def test_feature_influence_different_class_is_zero():
    g = make_graph(3, [(0, 1), (1, 2)])
    op = normalized_adjacency(g, r=1.0)
    cfg = PropagationConfig.sgc(1)
    sel = rank_all(op, cfg, [0], one_hot([0, 1, 2], 3))
    # node 1 is reached but shares no class with the seed: topology only
    assert list(sel.nodes) == [1, 2]
    assert list(sel.scores) == [1.0, 0.0]


def test_feature_influence_uniform_labels_scale():
    # uniform labels scale every feature column by 1/4, which the
    # per-node normalization cancels
    rng = np.random.default_rng(1)
    g = make_graph(8, random_connected_graph(rng, 8, extra_edges=3))
    op = normalized_adjacency(g, r=0.5)
    cfg = PropagationConfig.s2gc(2)
    uniform = rank_all(op, cfg, [0, 5], np.full((8, 4), 0.25))
    shared = rank_all(op, cfg, [0, 5], one_hot([0] * 8, 4))
    assert np.array_equal(uniform.nodes, shared.nodes)
    assert np.allclose(uniform.scores, shared.scores, atol=1e-15)


def test_feature_influence_rejects_bad_soft_labels():
    g = make_graph(3, [(0, 1), (1, 2)])
    op = normalized_adjacency(g, r=1.0)
    cfg = PropagationConfig.sgc(1)
    with pytest.raises(DataError):
        # rows sum to 2
        select_hie(op, cfg, [0], np.ones((3, 2)), theta=0.0, budget=1, mode="expanding")
    with pytest.raises(DataError):
        # wrong n
        select_hie(op, cfg, [0], np.full((2, 3), 1 / 3), theta=0.0, budget=1,
                   mode="expanding")


# ---------------------------------------------------------------- normalization

def test_normalize_single_seed_reachable_scores_one():
    # with one seed, every node that receives any influence gets ratio 1
    # in both channels
    rng = np.random.default_rng(2)
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
    op = normalized_adjacency(g, r=0.5)
    sel = rank_all(op, PropagationConfig.s2gc(2), [0], rng.dirichlet(np.ones(3), size=5))
    assert list(sel.nodes) == [1, 2, 3, 4]
    assert np.allclose(sel.scores, [2.0, 2.0, 0.0, 0.0], atol=1e-15)


def test_normalize_max_over_seeds_and_ratio():
    rng = np.random.default_rng(3)
    g = make_graph(9, random_connected_graph(rng, 9, extra_edges=4))
    cfg = PropagationConfig.gbp(3, 0.4)
    op = normalized_adjacency(g, r=0.5)
    pi = dense_pi(g, 0.5, cfg.weights)
    z = rng.dirichlet(np.ones(3), size=9)
    sel = rank_all(op, cfg, [1, 4, 6], z)
    assert np.allclose(sel.scores, influence_oracle(pi, z, [1, 4, 6])[sel.nodes],
                       atol=1e-12)


def test_normalize_bounds_hold():
    rng = np.random.default_rng(1)
    g = make_graph(10, random_connected_graph(rng, 10, extra_edges=5))
    op = normalized_adjacency(g, r=0.5)
    z = rng.dirichlet(np.ones(4), size=10)
    sel = select_hie(op, PropagationConfig.s2gc(3), [0, 1, 2, 3], z, theta=0.0,
                     budget=6, mode="expanding")
    assert sel.nodes.size == 6
    assert (sel.scores >= 0).all() and (sel.scores <= 2 + 1e-12).all()


# ------------------------------------------------------------------- selection

def star_fixture():
    g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    op = normalized_adjacency(g, r=1.0)
    cfg = PropagationConfig.sgc(1)
    z = one_hot([0, 0, 0, 0, 0], 2)
    return g, op, cfg, z


def test_select_star_static_picks_smallest_leaves():
    _, op, cfg, z = star_fixture()
    sel = select_hie(op, cfg, ue=[0], soft_labels=z, theta=0.0,
                     budget=2, mode="static")
    # single seed: every reachable candidate scores 1 + 1; ties resolve
    # to the smallest ids
    assert list(sel.nodes) == [1, 2]
    assert np.allclose(sel.scores, [2.0, 2.0])


def test_select_above_max_threshold_selects_nothing():
    _, op, cfg, z = star_fixture()
    sel = select_hie(op, cfg, ue=[0], soft_labels=z, theta=2.0 + 1e-9, budget=4,
                     mode="expanding")
    assert sel.nodes.size == 0 and sel.scores.size == 0


def test_select_zero_budget():
    _, op, cfg, z = star_fixture()
    sel = select_hie(op, cfg, ue=[0], soft_labels=z, theta=0.0, budget=0, mode="expanding")
    assert sel.nodes.size == 0


def test_select_validation_errors():
    _, op, cfg, z = star_fixture()
    with pytest.raises(ConfigError):
        select_hie(op, cfg, ue=[0], soft_labels=z, theta=-0.5, budget=2, mode="expanding")
    with pytest.raises(ConfigError):
        select_hie(op, cfg, ue=[0], soft_labels=z, theta=0.5, budget=-1, mode="expanding")
    with pytest.raises(ConfigError):
        select_hie(op, cfg, ue=[], soft_labels=z, theta=0.5, budget=2, mode="expanding")
    with pytest.raises(ConfigError):
        select_hie(op, cfg, ue=[0], soft_labels=z, theta=0.5, budget=2,
                   mode="adaptive")
    with pytest.raises(IndexError):
        select_hie(op, cfg, ue=[9], soft_labels=z, theta=0.5, budget=2, mode="expanding")


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_select_rejects_non_finite_theta(theta):
    # a NaN theta never stops the greedy loop: it used to pick the whole budget
    _, op, cfg, z = star_fixture()
    with pytest.raises(ConfigError, match="theta"):
        select_hie(op, cfg, ue=[0], soft_labels=z, theta=theta, budget=4, mode="expanding")


@pytest.mark.parametrize("row", [[math.nan, math.nan], [math.inf, -math.inf], [1.5, -0.5]],
                         ids=["nan", "inf", "negative"])
def test_select_rejects_soft_labels_that_are_not_distributions(row):
    # each row used to pass the sum check (a NaN sum compares false), and
    # a NaN row picked the whole budget at score 2.0
    _, op, cfg, z = star_fixture()
    z[3] = row
    with pytest.raises(DataError, match="finite and nonnegative"):
        select_hie(op, cfg, ue=[0], soft_labels=z, theta=0.0, budget=4, mode="expanding")


@pytest.mark.parametrize("ue", [[0.5, 1.7], [0.0, math.nan], ["0"], [True]])
def test_seed_ids_must_be_integers(ue):
    # float ids used to be truncated: [0.5, 1.7] ran as seeds 0 and 1
    g, op, cfg, z = star_fixture()
    with pytest.raises(ConfigError, match="integers"):
        select_hie(op, cfg, ue=ue, soft_labels=z, theta=0.0, budget=2, mode="expanding")
    with pytest.raises(ConfigError, match="integers"):
        khop_hie_capped(g, ue, hops=1, budget=2)


def test_whole_float_seed_ids_are_accepted():
    g, op, cfg, z = star_fixture()
    as_float = select_hie(op, cfg, ue=np.array([0.0, 2.0]), soft_labels=z, theta=0.0,
                          budget=2, mode="expanding")
    as_int = select_hie(op, cfg, ue=[0, 2], soft_labels=z, theta=0.0, budget=2,
                        mode="expanding")
    assert np.array_equal(as_float.nodes, as_int.nodes)
    assert khop_hie_capped(g, [2.0], 2, 4).nodes.tolist() == [0, 1, 3, 4]


def test_select_deterministic_and_prefix_property():
    rng = np.random.default_rng(2)
    g = make_graph(12, random_connected_graph(rng, 12, extra_edges=5))
    op = normalized_adjacency(g, r=0.5)
    cfg = PropagationConfig.s2gc(2)
    z = rng.dirichlet(np.ones(3), size=12)
    a = select_hie(op, cfg, [0, 3], z, theta=0.0, budget=4, mode="expanding")
    b = select_hie(op, cfg, [0, 3], z, theta=0.0, budget=4, mode="expanding")
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.scores, b.scores)
    big = select_hie(op, cfg, [0, 3], z, theta=0.0, budget=8, mode="expanding")
    assert np.array_equal(big.nodes[:4], a.nodes)


def test_select_matches_budget_one_table_argmax():
    # one-round selection must agree with the dense oracle's argmax
    rng = np.random.default_rng(3)
    for trial in range(5):
        g = make_graph(10, random_connected_graph(rng, 10, extra_edges=4))
        op = normalized_adjacency(g, r=1.0)
        cfg = PropagationConfig.s2gc(3)
        z = rng.dirichlet(np.ones(3), size=10)
        ue = [int(rng.integers(0, 10)), int(rng.integers(0, 10))]
        combined = influence_oracle(dense_pi(g, 1.0, cfg.weights), z, np.unique(ue))
        combined[ue] = -1.0
        best_score = combined.max()
        best_node = int(np.flatnonzero(np.abs(combined - best_score) < 1e-15).min())
        sel = select_hie(op, cfg, ue, z, theta=0.0, budget=1, mode="expanding")
        assert list(sel.nodes) == [best_node]
        assert abs(sel.scores[0] - best_score) < 1e-12


def test_select_static_mode_scores_are_nonincreasing():
    rng = np.random.default_rng(4)
    g = make_graph(10, random_connected_graph(rng, 10, extra_edges=4))
    op = normalized_adjacency(g, r=0.5)
    cfg = PropagationConfig.s2gc(2)
    z = rng.dirichlet(np.ones(3), size=10)
    sel = select_hie(op, cfg, [0, 5], z, theta=0.0, budget=6, mode="static")
    # fixed seed set means candidate scores never change between rounds,
    # so the greedy pick sequence is sorted by score
    assert (np.diff(sel.scores) <= 1e-12).all()


def test_select_theta_filters_low_scores_static():
    rng = np.random.default_rng(5)
    g = make_graph(10, random_connected_graph(rng, 10, extra_edges=4))
    op = normalized_adjacency(g, r=0.5)
    cfg = PropagationConfig.s2gc(2)
    z = rng.dirichlet(np.ones(3), size=10)
    full = select_hie(op, cfg, [0], z, theta=0.0, budget=9, mode="static")
    if full.scores.size and full.scores.min() < full.scores.max():
        theta = float(np.median(full.scores))
        cut = select_hie(op, cfg, [0], z, theta=theta, budget=9, mode="static")
        assert (cut.scores >= theta).all()
        assert np.array_equal(cut.nodes, full.nodes[full.scores >= theta])


# ------------------------------------- seed-column routes vs per-column oracle

def sparse_sbm(n=400, p_in=0.02, p_out=0.002, seed=0):
    """About 2.6 neighbours per node at the defaults: 3-hop balls stay small."""
    return generate_sbm(SbmSpec(n=n, classes=4, p_in=p_in, p_out=p_out, num_features=4,
                                separation=1.0, train_fraction=0.8), seed)


def scheme_config(scheme, k):
    if scheme == "custom":  # a negative weight, so columns can cancel
        return PropagationConfig(weights=(-0.3, 0.6, 0.5, 0.2)[:k + 1])
    if scheme == "gbp":
        return PropagationConfig.gbp(k, 0.3)
    return getattr(PropagationConfig, scheme)(k)


def assert_same_selection(args):
    got, want = select_hie(*args), select_hie_per_column(*args)
    assert np.array_equal(got.nodes, want.nodes)
    assert got.scores.tobytes() == want.scores.tobytes()


@pytest.mark.parametrize("scheme", ["sgc", "s2gc", "gbp", "custom"])
def test_select_matches_per_column_oracle_bit_for_bit(scheme):
    g = sparse_sbm()
    rng = np.random.default_rng(11)
    for r in (0.0, 0.5, 1.0):
        op = normalized_adjacency(g, r)
        for k in range(4):
            cfg = scheme_config(scheme, k)
            ue = rng.choice(g.n, size=40, replace=False)
            for c in (2, 3, 4, 5):
                z = rng.dirichlet(np.ones(c), size=g.n)
                for mode in SELECTION_MODES:
                    assert_same_selection((op, cfg, ue, z, 0.3, 60, mode))


@pytest.mark.parametrize("seed", [1, 7])
def test_select_matches_oracle_on_edge_attack_operator(seed):
    # the operator edge_attack_run selects on: the poisoned graph, UE the
    # injected edges' endpoints; random soft labels stand in for a fit
    cfg = RunConfig(**EDGE_CONFIG)
    graph = generate_sbm(SbmSpec(**EDGE_SPEC), seed)
    rng = np.random.default_rng(seed)
    for rho in EDGE_RHOS:
        injected = np.asarray(sample_noise_edges(graph, math.ceil(rho * graph.num_edges), seed))
        poisoned = build_graph(graph.n, np.vstack([graph.undirected_edges(), injected]),
                               graph.features, graph.labels, graph.train_mask,
                               graph.test_mask)
        ue = np.unique(injected)
        z = rng.dirichlet(np.ones(graph.num_classes), size=graph.n)
        assert_same_selection((normalized_adjacency(poisoned, cfg.r), cfg.propagation_config(),
                               ue, z, cfg.theta, cfg.budget_for(ue.size), cfg.selection_mode))


BALLS = {"small-balls": (0.02, 0.002),  # 2.6 neighbours: 3-hop balls hold a few percent
         "dense-balls": (0.2, 0.02)}     # the CLI chain's 26 neighbours at n=400


@pytest.mark.parametrize("share", [0.0, math.inf], ids=["dense-from-hop-2", "sparse-throughout"])
@pytest.mark.parametrize("balls", sorted(BALLS))
def test_select_matches_oracle_with_each_route_forced(monkeypatch, share, balls):
    # narrow blocks and sub-blocks, so the folds also cross their seams
    monkeypatch.setattr(influence, "SPARSE_SHARE", share)
    monkeypatch.setattr(influence, "BLOCK_ENTRIES", 7 * 400)
    monkeypatch.setattr(influence, "DENSE_ENTRIES", 3 * 400)
    p_in, p_out = BALLS[balls]
    g = sparse_sbm(p_in=p_in, p_out=p_out, seed=3)
    rng = np.random.default_rng(13)
    for scheme in ("sgc", "s2gc", "gbp", "custom"):
        for r in (0.0, 0.5, 1.0):
            op = normalized_adjacency(g, r)
            for k in range(4):
                ue = rng.choice(g.n, size=40, replace=False)
                z = rng.dirichlet(np.ones(3), size=g.n)
                for mode in SELECTION_MODES:
                    assert_same_selection((op, scheme_config(scheme, k), ue, z, 0.3, 30, mode))


@pytest.mark.parametrize("balls, dense", [("small-balls", False), ("dense-balls", True)],
                         ids=["small-balls", "dense-balls"])
def test_unlearned_columns_run_dense_tails_only_on_dense_balls(monkeypatch, balls, dense):
    tails = []
    fold_tail = influence._fold_dense_tail

    def counted(agg, op, config, done, cur, out, block, z):
        tails.append((done, block.tolist()))
        return fold_tail(agg, op, config, done, cur, out, block, z)

    monkeypatch.setattr(influence, "_fold_dense_tail", counted)
    p_in, p_out = BALLS[balls]
    g = sparse_sbm(p_in=p_in, p_out=p_out, seed=2)
    rng = np.random.default_rng(2)
    ue = np.unique(rng.choice(g.n, size=40, replace=False))
    z = rng.dirichlet(np.ones(3), size=g.n)
    args = (normalized_adjacency(g, 0.5), PropagationConfig.s2gc(3), ue, z, 0.0, 10, "expanding")
    assert_same_selection(args)
    # 26 neighbours at n = 400 fill 7% of the block at hop 1, so hops 2
    # and 3 run dense; picks never take the fold
    assert tails == ([(1, ue.tolist())] if dense else [])


@pytest.mark.parametrize("n, dense_entries", [(50, 1 << 15), (400, 3 * 400), (400, 1),
                                              (40_000, 1 << 15)],
                         ids=["one-sub-block", "sub-blocks-of-3", "narrow-buffer",
                              "n-beyond-buffer"])
def test_sparse_fold_matches_per_seed_oracle(monkeypatch, n, dense_entries):
    monkeypatch.setattr(influence, "DENSE_ENTRIES", dense_entries)
    rng = np.random.default_rng(n + dense_entries)
    for width in (1, 7, 40):
        block = rng.choice(n, size=width, replace=False)
        out = sp.random(width, n, density=min(1.0, 30 / n), format="csr", random_state=rng,
                        data_rvs=lambda k: rng.standard_normal(k))
        out.sort_indices()
        z = rng.dirichlet(np.ones(3), size=n)
        start = rng.random((4, n))
        got, want = tuple(start.copy()), tuple(start.copy())
        influence._fold_sparse(got, out, block, z)
        fold_sparse_per_seed(want, out, block, z)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_select_matches_per_seed_fold_oracle_on_the_sparse_route(monkeypatch, seed):
    # sparse throughout, with narrow blocks and buffers, so every UE block
    # folds through _fold_sparse across several sub-blocks
    monkeypatch.setattr(influence, "SPARSE_SHARE", math.inf)
    monkeypatch.setattr(influence, "BLOCK_ENTRIES", 30 * 400)
    monkeypatch.setattr(influence, "DENSE_ENTRIES", 7 * 400)
    g = sparse_sbm(seed=seed)
    runs = []
    for fold in (influence._fold_sparse, fold_sparse_per_seed):
        monkeypatch.setattr(influence, "_fold_sparse", fold)
        picks = []
        for k in range(1, 4):
            cfg = scheme_config(("sgc", "s2gc", "gbp", "custom")[(seed + k) % 4], k)
            ue = np.random.default_rng(k).choice(g.n, size=70, replace=False)
            z = np.random.default_rng(k).dirichlet(np.ones(4), size=g.n)
            for mode in SELECTION_MODES:
                sel = select_hie(normalized_adjacency(g, 0.5), cfg, ue, z, 0.3, 40, mode)
                picks.append((sel.nodes.tobytes(), sel.scores.tobytes()))
        runs.append(picks)
    assert runs[0] == runs[1]


def test_select_memory_stays_narrow_at_the_cli_shape():
    # the CLI chain's selection: n = 4000, 26 neighbours, |UE| = 320, k = 3;
    # dense tails on whole 2**20-entry blocks peaked at 37 MB here
    cfg = RunConfig(theta=0.5)
    g = generate_sbm(SbmSpec(n=4000, classes=4, p_in=0.02, p_out=0.002, num_features=4,
                             separation=1.0, train_fraction=0.8), 2)
    rng = np.random.default_rng(2)
    ue = rng.choice(g.n, size=320, replace=False)
    z = rng.dirichlet(np.ones(4), size=g.n)
    op = normalized_adjacency(g, cfg.r)
    tracemalloc.start()
    try:
        sel = select_hie(op, cfg.propagation_config(), ue, z, cfg.theta,
                         cfg.budget_for(ue.size), cfg.selection_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sel.nodes.size > 0
    assert peak < 12 * 2**20, f"select_hie peaked at {peak / 2**20:.1f} MB"


# ------------------------------------------------------------------ khop + bfs

def test_bfs_distances_path():
    # the oracle itself, on a path where every distance is known
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert list(bfs_distances(g, [0])) == [0, 1, 2, 3]
    assert list(bfs_distances(g, [0], max_hops=2)) == [0, 1, 2, -1]
    assert list(bfs_distances(g, [1, 3])) == [1, 0, 1, 0]


def khop_oracle(g, ue, hops, budget):
    """Budgeted k-hop picks from the BFS oracle: (node, hop) pairs, nearest
    hop first, then smallest id."""
    dist = bfs_distances(g, ue, max_hops=hops)
    inside = [v for v in range(g.n) if 0 < dist[v] <= hops]
    return [(v, int(dist[v])) for v in sorted(inside, key=lambda v: (dist[v], v))[:budget]]


def test_khop_capped_matches_bfs_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        # a sparse random edge list, so some nodes sit out of reach
        g = make_graph(n, rng.integers(0, n, size=(int(rng.integers(0, n + 1)), 2)))
        ue = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
        for hops in range(4):
            for budget in (0, 1, 3, n + 1):
                got = khop_hie_capped(g, ue, hops, budget)
                expect = khop_oracle(g, ue, hops, budget)
                assert got.nodes.tolist() == [v for v, _ in expect]
                assert got.scores.tolist() == [float(d) for _, d in expect]


def test_khop_rejects_seed_out_of_range():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    for seed in (-1, g.n):
        with pytest.raises(IndexError):
            khop_hie_capped(g, [0, seed], hops=2, budget=g.n)
    with pytest.raises(ConfigError):
        khop_hie_capped(g, [0], hops=-1, budget=g.n)


def test_khop_path_two_hops():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert list(khop_hie_capped(g, [0], 2, budget=g.n).nodes) == [1, 2]


def test_khop_excludes_seeds_and_respects_reachability():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
    got = khop_hie_capped(g, [0], 4, budget=g.n)
    assert list(got.nodes) == [1, 2]  # 3, 4 in another component


def test_khop_capped_prefers_closer_then_smaller_id():
    # star with extra ring: hub 0 with leaves 1..4, leaf 4 chains to 5
    g = make_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    got = khop_hie_capped(g, [0], hops=2, budget=3)
    assert list(got.nodes) == [1, 2, 3]  # hop-1 nodes win, smallest ids first
    got = khop_hie_capped(g, [0], hops=2, budget=5)
    assert list(got.nodes) == [1, 2, 3, 4, 5]
    with pytest.raises(ConfigError):
        khop_hie_capped(g, [0], hops=2, budget=-1)


def test_khop_capped_picks_by_hop_then_id_and_scores_the_hop():
    # seeds 3 and 9 on a path 0-1-...-11: node 6 is 3 hops from both, so
    # the hop-1 ring (2, 4, 8, 10) precedes the hop-2 ring in id order
    g = make_graph(12, [(i, i + 1) for i in range(11)])
    got = khop_hie_capped(g, [9, 3], hops=2, budget=7)
    assert got.nodes.dtype == np.int64
    assert got.nodes.tolist() == [2, 4, 8, 10, 1, 5, 7]
    assert got.scores.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


# ----------------------------------------------------------------------- export

def test_write_hie_csv_format(tmp_path):
    sel = HieSelection(nodes=np.array([4, 2]), scores=np.array([1.5, 0.75]))
    path = tmp_path / "hie.csv"
    write_hie_csv(sel, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,score,round"
    assert lines[1] == "4,1.5,1"
    assert lines[2] == "2,0.75,2"
