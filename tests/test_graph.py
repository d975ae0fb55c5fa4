import numpy as np
import pytest

from graphunlearn.errors import (ConfigError, DataError, MaskError, ShapeError)
from graphunlearn.evaluate import mia_attack
from graphunlearn.graph import (PropagationConfig, build_graph, edge_keys,
                                normalized_adjacency, propagate)
from graphunlearn.influence import khop_hie_capped, select_hie
from graphunlearn.unlearn import UnlearnRequest, check_request, prepare_partition

from conftest import (dense_operator, dense_pi, identity_head, make_graph,
                      propagation_column, random_connected_graph)


# ---------------------------------------------------------------- build_graph

def test_build_empty_graph():
    g = make_graph(0, [], features=np.zeros((0, 3)))
    assert g.num_edges == 0
    assert g.num_classes == 0


def test_build_dedup_and_symmetrize():
    g = make_graph(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
    assert g.num_edges == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.has_edge(2, 3) and g.has_edge(3, 2)
    assert not g.has_edge(0, 2)


def _unique_csr(n, edges):
    """np.unique-based CSR build: the reference for build_graph's sort dedup."""
    edges = edges[edges[:, 0] != edges[:, 1]]
    both = np.vstack([edges, edges[:, ::-1]])
    keys = np.unique(both[:, 0] * n + both[:, 1])
    return np.searchsorted(keys // n, np.arange(n + 1)), keys % n


def test_build_matches_unique_based_build():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        # repeat some rows as they are, mirror others, and add self-loops
        picks = rng.integers(0, max(len(edges), 1), size=len(edges) // 2)
        loops = np.repeat(rng.integers(0, n, size=(3, 1)), 2, axis=1)
        edges = np.vstack([edges, edges[picks], edges[picks][:, ::-1], loops])
        g = make_graph(n, edges)
        indptr, indices = _unique_csr(n, edges)
        assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
        assert g.indptr.dtype == g.indices.dtype == np.int64


def test_edge_direction_is_irrelevant():
    a = make_graph(5, [(0, 1), (1, 2), (3, 4)])
    b = make_graph(5, [(1, 0), (2, 1), (4, 3)])
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def test_self_loops_dropped():
    g = make_graph(3, [(0, 0), (1, 1), (0, 1)])
    assert g.num_edges == 1
    assert not g.has_edge(0, 0) and not g.has_edge(1, 1)


def test_degrees_and_neighbors():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert list(np.diff(g.indptr)) == [3, 1, 1, 1]
    assert list(g.indices[g.indptr[0]:g.indptr[1]]) == [1, 2, 3]
    assert list(g.indices[g.indptr[2]:g.indptr[3]]) == [0]
    assert [g.has_edge(2, v) for v in range(4)] == [True, False, False, False]
    with pytest.raises(IndexError):
        g.has_edge(4, 0)


def test_edge_keys_sort_like_pairs():
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 7, size=(40, 2))
    keys = edge_keys(edges, 7)
    assert keys.dtype == np.int64 and keys.tolist() == [u * 7 + v for u, v in edges.tolist()]
    assert np.array_equal(np.argsort(keys, kind="stable"),
                          np.lexsort((edges[:, 1], edges[:, 0])))
    assert edge_keys([(2, 5)], 7).tolist() == [19]
    assert edge_keys(np.empty((0, 2), np.int64), 7).shape == (0,)


def test_undirected_edges_listing():
    g = make_graph(4, [(2, 0), (3, 1)])
    assert g.undirected_edges().tolist() == [[0, 2], [1, 3]]


def test_build_rejects_bad_endpoint():
    with pytest.raises(IndexError):
        make_graph(3, [(0, 3)])
    with pytest.raises(IndexError):
        make_graph(3, [(-1, 0)])


def test_build_rejects_bad_features():
    with pytest.raises(ShapeError):
        make_graph(3, [], features=np.zeros((2, 4)))
    with pytest.raises(DataError):
        make_graph(2, [], features=np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_build_rejects_bad_labels_and_masks():
    with pytest.raises(ShapeError):
        make_graph(3, [], labels=np.array([0, 1]))
    with pytest.raises(DataError):
        make_graph(3, [], labels=np.array([0, -2, 1]))
    with pytest.raises(MaskError):
        make_graph(3, [], train=np.array([True, True, False]),
                   test=np.array([False, True, True]))
    with pytest.raises(MaskError):
        make_graph(3, [], train=np.ones(4, dtype=bool))
    with pytest.raises(ConfigError):
        build_graph(-1, [], np.zeros((0, 1)), np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=bool), np.zeros(0, dtype=bool))


def test_build_rejects_masks_that_are_not_bool_of_shape_n():
    none = np.zeros(3, dtype=bool)
    # an int array is not read as node ids: [0, 1, 0] would mark nodes 0 and 1
    with pytest.raises(MaskError):
        make_graph(3, [], train=np.array([0, 1, 0]), test=none)
    with pytest.raises(MaskError):
        make_graph(3, [], train=np.ones(3, dtype=bool), test=np.array([0, 0, 1]))
    with pytest.raises(MaskError):
        make_graph(3, [], train=np.ones((3, 1), dtype=bool), test=none)
    with pytest.raises(MaskError):
        make_graph(3, [], train=np.ones(2, dtype=bool), test=none)


# ------------------------------------------------------ the id rule at each door

def _star():
    g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)],
                   train=np.array([True, True, True, True, False]))
    return g, normalized_adjacency(g, r=1.0), PropagationConfig.sgc(1)


def _partition(g, ue, hie):
    x = np.ones((g.n, 2))
    return prepare_partition(g, x, ue, hie, np.tile([0.6, 0.4], (g.n, 1)),
                             identity_head(np.eye(2)), x_before=x,
                             positives_per_anchor=1, negatives_per_anchor=1, seed=0)


# each door, fed a node set or the same ids as an edge list
DOORS = {
    "build_graph-edges": lambda g, op, cfg, nodes, edges: make_graph(3, edges),
    "build_graph-labels": lambda g, op, cfg, nodes, edges: make_graph(3, [],
                                                                      labels=[0, *nodes]),
    "request-nodes": lambda g, op, cfg, nodes, edges: UnlearnRequest(kind="feature",
                                                                     nodes=nodes),
    "request-edges": lambda g, op, cfg, nodes, edges: UnlearnRequest(kind="edge", edges=edges),
    "select_hie": lambda g, op, cfg, nodes, edges: select_hie(
        op, cfg, ue=nodes, soft_labels=np.ones((g.n, 1)), theta=0.0, budget=2,
        mode="expanding"),
    "khop_hie_capped": lambda g, op, cfg, nodes, edges: khop_hie_capped(g, nodes, 1, 2),
    "prepare_partition": lambda g, op, cfg, nodes, edges: _partition(g, nodes, [4]),
    "mia_attack": lambda g, op, cfg, nodes, edges: mia_attack(
        identity_head(np.zeros((2, 2))), np.zeros((10, 2)), nodes, np.arange(5, 10), seed=0),
    "check_request": lambda g, op, cfg, nodes, edges: check_request(
        g, UnlearnRequest.from_dict({"kind": "node", "nodes": nodes})),
}

BAD_IDS = {  # name: (node set, the same ids as an edge list)
    "bool": ([1, True], [(1, True)]),
    "fraction": ([1, 1.5], [(1, 1.5)]),
    "string": ([1, "3"], [(1, "3")]),
    "none": ([1, None], [(1, None)]),
    "int-beyond-int64": ([1, 2 ** 70], [(1, 2 ** 70)]),
    "float-beyond-int64": ([1, 1e300], [(1, 1e300)]),
    "triple": (((1, 2, 3),), ((1, 2, 3),)),
}


def _expected_error(door, bad):
    if bad != "triple" or door == "build_graph-labels":  # labels [0, (1, 2, 3)] are ragged
        return ConfigError, "ids must be integers within int64"
    if door == "build_graph-edges":
        return ShapeError, r"edges must be \(u, v\) pairs"
    if door == "request-edges":
        return ConfigError, r"carry edges, as \[u, v\] pairs,"
    if door in ("request-nodes", "check_request"):  # check_request reads a request
        return ConfigError, "carry nodes, as a list,"
    return ConfigError, "ids must be a 1-d list"


@pytest.mark.parametrize("bad", BAD_IDS)
@pytest.mark.parametrize("door", DOORS)
def test_every_door_reads_ids_by_one_rule(door, bad):
    # no door may read True as 1, 1.5 as 1, "3" as 3 or 1e300 as int64's
    # minimum, nor a (1, 3) id block as three nodes
    error, match = _expected_error(door, bad)
    with pytest.raises(error, match=match):
        DOORS[door](*_star(), *BAD_IDS[bad])


def _fields(result):
    """What a door returns, comparable: arrays by dtype and values, all else
    by repr (so a tuple of np.int64 differs from one of Python ints)."""
    if hasattr(result, "__dataclass_fields__"):
        return {k: _fields(v) for k, v in vars(result).items() if k != "scatter"}
    if isinstance(result, list):
        return [_fields(v) for v in result]
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.tolist()
    return repr(result)


@pytest.mark.parametrize("door", DOORS)
def test_int_numpy_int_and_whole_float_ids_read_alike(door):
    results = [_fields(DOORS[door](*_star(), nodes, edges)) for nodes, edges in [
        ([1, 2], [(1, 2)]),
        (np.array([1, 2], dtype=np.int64), np.array([[1, 2]], dtype=np.int64)),
        (np.array([1.0, 2.0]), np.array([[1.0, 2.0]])),
        ([1.0, 2.0], [(1.0, 2.0)]),  # as JSON reads [1.0, 2.0]
    ]]
    assert all(r == results[0] for r in results)


def test_graph_arrays_are_immutable(path3):
    with pytest.raises(ValueError):
        path3.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        path3.indices[0] = 2


def _view_of_array():
    base = np.zeros((3, 2))
    f = base.view()
    f.setflags(write=False)
    return f, base.reshape(-1)


def _buffer_of_bytearray():
    base = bytearray(48)
    return np.frombuffer(memoryview(base).toreadonly()).reshape(3, 2), np.frombuffer(base)


def test_build_leaves_the_callers_features_writeable_and_unshared():
    f = np.zeros((3, 2))
    v = f[:, 0]
    g = build_graph(3, [], f, [0, 0, 0], np.ones(3, dtype=bool), np.zeros(3, dtype=bool))
    v[0] = 5.0
    assert f.flags.writeable
    assert not np.may_share_memory(g.features, f)
    assert g.features[0, 0] == 0.0
    # a read-only array is copied too
    f.setflags(write=False)
    g = build_graph(3, [], f, [0, 0, 0], np.ones(3, dtype=bool), np.zeros(3, dtype=bool))
    assert not np.may_share_memory(g.features, f)


@pytest.mark.parametrize("make", [_view_of_array, _buffer_of_bytearray],
                         ids=["read-only-view", "frombuffer-read-only-memoryview"])
def test_build_copies_a_read_only_view_of_writeable_memory(make):
    # the view cannot be written, but its base can: a write through the
    # base must not reach the graph
    f, base = make()
    assert not f.flags.writeable and base.flags.writeable
    g = build_graph(3, [], f, [0, 0, 0], np.ones(3, dtype=bool), np.zeros(3, dtype=bool))
    assert not np.may_share_memory(g.features, f)
    base[0] = 5.0
    assert f[0, 0] == 5.0
    assert g.features[0, 0] == 0.0


# ------------------------------------------------------- normalized adjacency

def test_isolated_node_operator_is_identity():
    g = make_graph(2, [])
    s = normalized_adjacency(g, r=0.5).matrix.toarray()
    assert np.allclose(s, np.eye(2))


def test_row_normalization_rows_sum_to_one():
    rng = np.random.default_rng(7)
    for n in (2, 5, 9):
        g = make_graph(n, random_connected_graph(rng, n), num_features=2)
        s = normalized_adjacency(g, r=1.0).matrix
        sums = np.asarray(s.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_path3_symmetric_normalization_row():
    g = make_graph(3, [(0, 1), (1, 2)])
    s = normalized_adjacency(g, r=0.5).matrix.toarray()
    # hat degrees are [2, 3, 2]; middle row couples via 1/sqrt(6)
    expected = np.array([1.0 / np.sqrt(6), 1.0 / 3.0, 1.0 / np.sqrt(6)])
    assert np.allclose(s[1], expected, atol=1e-15)


def test_operator_matches_dense_reference_across_r():
    rng = np.random.default_rng(3)
    for n in (3, 6, 8):
        g = make_graph(n, random_connected_graph(rng, n), num_features=2)
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = normalized_adjacency(g, r=r).matrix.toarray()
            assert np.allclose(s, dense_operator(g, r), atol=1e-12)


def test_operator_rejects_bad_exponent(path3):
    with pytest.raises(ConfigError):
        normalized_adjacency(path3, r=-0.1)
    with pytest.raises(ConfigError):
        normalized_adjacency(path3, r=1.5)


# ----------------------------------------------------------- weighting schemes

def test_sgc_weights():
    cfg = PropagationConfig.sgc(3)
    assert cfg.weights == (0.0, 0.0, 0.0, 1.0)
    assert cfg.k == 3
    assert PropagationConfig.sgc(0).weights == (1.0,)
    with pytest.raises(ConfigError):
        PropagationConfig.sgc(-1)


def test_s2gc_weights():
    cfg = PropagationConfig.s2gc(3)
    assert cfg.weights == (0.25, 0.25, 0.25, 0.25)
    assert cfg.k == 3
    with pytest.raises(ConfigError):
        PropagationConfig.s2gc(-1)


def test_gbp_weights():
    cfg = PropagationConfig.gbp(2, beta=0.5)
    assert np.allclose(cfg.weights, (0.5, 0.25, 0.125))
    assert cfg.k == 2
    with pytest.raises(ConfigError):
        PropagationConfig.gbp(2, beta=0.0)
    with pytest.raises(ConfigError):
        PropagationConfig.gbp(2, beta=1.5)
    with pytest.raises(ConfigError):
        PropagationConfig.gbp(-1, beta=0.5)


def test_custom_weights_and_validation():
    cfg = PropagationConfig(weights=[0.5, 0.5])
    assert cfg.weights == (0.5, 0.5)
    assert cfg.k == 1
    with pytest.raises(ConfigError):
        PropagationConfig(weights=())
    with pytest.raises(ConfigError):
        PropagationConfig(weights=[[0.5, 0.5]])
    with pytest.raises(ConfigError):
        PropagationConfig(weights=[1.0, np.inf])


# -------------------------------------------------------------------- propagate

def test_propagate_identity_weights(path3):
    op = normalized_adjacency(path3, r=1.0)
    cfg = PropagationConfig(weights=[1.0])
    out = propagate(op, path3.features, cfg)
    assert np.allclose(out, path3.features)


def test_propagate_matches_dense_power():
    rng = np.random.default_rng(11)
    g = make_graph(6, random_connected_graph(rng, 6), num_features=4)
    x = rng.standard_normal((6, 4))
    for r in (0.5, 1.0):
        op = normalized_adjacency(g, r=r)
        s = dense_operator(g, r)
        out = propagate(op, x, PropagationConfig.sgc(2))
        assert np.allclose(out, s @ s @ x, atol=1e-12)


def test_propagate_s2gc_is_mean_of_powers():
    rng = np.random.default_rng(13)
    g = make_graph(5, random_connected_graph(rng, 5), num_features=3)
    x = rng.standard_normal((5, 3))
    op = normalized_adjacency(g, r=0.5)
    s = dense_operator(g, 0.5)
    expect = (x + s @ x + s @ s @ x) / 3.0
    out = propagate(op, x, PropagationConfig.s2gc(2))
    assert np.allclose(out, expect, atol=1e-12)


def test_propagate_rejects_wrong_rows(path3):
    op = normalized_adjacency(path3, r=1.0)
    with pytest.raises(ShapeError):
        propagate(op, np.zeros((4, 2)), PropagationConfig.sgc(1))


def test_propagate_is_linear():
    rng = np.random.default_rng(17)
    g = make_graph(7, random_connected_graph(rng, 7), num_features=3)
    op = normalized_adjacency(g, r=0.5)
    cfg = PropagationConfig.gbp(3, beta=0.3)
    x = rng.standard_normal((7, 3))
    y = rng.standard_normal((7, 3))
    a, b = 2.5, -1.25
    lhs = propagate(op, a * x + b * y, cfg)
    rhs = a * propagate(op, x, cfg) + b * propagate(op, y, cfg)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_row_stochastic_propagation_preserves_ones():
    rng = np.random.default_rng(19)
    g = make_graph(8, random_connected_graph(rng, 8), num_features=2)
    op = normalized_adjacency(g, r=1.0)
    ones = np.ones((8, 1))
    for cfg in (PropagationConfig.sgc(3), PropagationConfig.s2gc(4)):
        out = propagate(op, ones, cfg)
        assert np.max(np.abs(out - 1.0)) < 1e-12


# ----------------------------------------------------------- propagation column

def test_path3_column_one_step():
    g = make_graph(3, [(0, 1), (1, 2)])
    op = normalized_adjacency(g, r=1.0)
    col = propagation_column(op, PropagationConfig.sgc(1), 0)
    assert np.allclose(col, [0.5, 1.0 / 3.0, 0.0], atol=1e-15)


def test_path3_column_two_steps():
    g = make_graph(3, [(0, 1), (1, 2)])
    op = normalized_adjacency(g, r=1.0)
    col = propagation_column(op, PropagationConfig.sgc(2), 0)
    assert np.allclose(col, [5.0 / 12.0, 5.0 / 18.0, 1.0 / 6.0], atol=1e-15)


def test_path5_center_column_two_steps():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    op = normalized_adjacency(g, r=1.0)
    col = propagation_column(op, PropagationConfig.sgc(2), 2)
    expected = np.array([1.0 / 6.0, 2.0 / 9.0, 1.0 / 3.0, 2.0 / 9.0, 1.0 / 6.0])
    assert np.allclose(col, expected, atol=1e-15)


def test_column_equals_dense_pi_column():
    rng = np.random.default_rng(23)
    g = make_graph(6, random_connected_graph(rng, 6), num_features=2)
    cfg = PropagationConfig.s2gc(3)
    op = normalized_adjacency(g, r=1.0)
    pi = dense_pi(g, 1.0, cfg.weights)
    for u in range(6):
        assert np.allclose(propagation_column(op, cfg, u), pi[:, u], atol=1e-12)
