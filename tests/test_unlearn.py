import dataclasses

import numpy as np
import pytest

from graphunlearn.datagen import SbmSpec, generate_sbm
from graphunlearn.errors import ConfigError, DataError, RequestError
from graphunlearn.graph import PropagationConfig, normalized_adjacency, propagate
from graphunlearn.model import init_model, predict, train
from graphunlearn.unlearn import (REQUEST_KINDS, EntityPartition, FinetuneBuffers,
                                  UnlearnRequest, _gather, apply_removal, finetune,
                                  fused_loss, prepare_partition, read_request,
                                  transform_request, write_request)
from graphunlearn.pipeline import RunConfig, retrain_state

from conftest import (TextbookAdam, apply_removal_rebuild, grad_check, identity_head,
                      gather_loop, loss_oracle, make_graph, prepare_partition_loop)


# -------------------------------------------------------------------- requests

def test_request_normalization_and_dedup():
    r = UnlearnRequest(kind="node", nodes=(7, 3, 7))
    assert r.nodes == (3, 7)
    e = UnlearnRequest(kind="edge", edges=((5, 2), (1, 2), (2, 5)))
    assert e.edges == ((1, 2), (2, 5))


def test_request_kind_field_matching():
    with pytest.raises(ConfigError):
        UnlearnRequest(kind="node", nodes=())
    with pytest.raises(ConfigError):
        UnlearnRequest(kind="node", nodes=(1,), edges=((0, 1),))
    with pytest.raises(ConfigError):
        UnlearnRequest(kind="edge", edges=())
    with pytest.raises(ConfigError):
        UnlearnRequest(kind="edge", edges=((2, 2),))
    with pytest.raises(ConfigError):
        UnlearnRequest(kind="memory", nodes=(1,))


def test_transform_request_node_feature_edge():
    assert list(transform_request(UnlearnRequest(kind="node", nodes=(3, 7)))) == [3, 7]
    assert list(transform_request(UnlearnRequest(kind="feature", nodes=(4,)))) == [4]
    e = UnlearnRequest(kind="edge", edges=((1, 2), (2, 5)))
    assert list(transform_request(e)) == [1, 2, 5]


def test_request_file_round_trip(tmp_path):
    r = UnlearnRequest(kind="edge", edges=((4, 1), (2, 3)))
    path = tmp_path / "request.json"
    write_request(r, path)
    back = read_request(path)
    assert back == r
    with pytest.raises(ConfigError):
        path.write_text("not json")
        read_request(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="request must be a single JSON object"):
        read_request(path)


def test_write_request_bytes(tmp_path):
    path = tmp_path / "request.json"
    write_request(UnlearnRequest(kind="node", nodes=(4, 1)), path)
    assert path.read_bytes() == b'{"edges": [], "kind": "node", "nodes": [1, 4]}\n'
    write_request(UnlearnRequest(kind="edge", edges=((2, 0),)), path)
    assert path.read_bytes() == b'{"edges": [[0, 2]], "kind": "edge", "nodes": []}\n'


# ---------------------------------------------------------------- apply_removal

def labeled_path(n=5):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)],
                      labels=np.arange(n) % 2,
                      train=np.ones(n, dtype=bool), test=None)


def test_apply_removal_edge_drops_both_directions():
    g = labeled_path()
    out = apply_removal(g, UnlearnRequest(kind="edge", edges=((1, 2),)))
    assert not out.has_edge(1, 2) and not out.has_edge(2, 1)
    assert out.has_edge(0, 1)
    assert np.array_equal(out.features, g.features)
    assert np.array_equal(out.train_mask, g.train_mask)


def test_apply_removal_feature_zeroes_rows_only():
    g = labeled_path()
    out = apply_removal(g, UnlearnRequest(kind="feature", nodes=(2,)))
    assert np.all(out.features[2] == 0.0)
    assert np.array_equal(out.features[0], g.features[0])
    assert out.has_edge(1, 2)          # edges survive
    assert out.train_mask[2]           # membership survives


def test_apply_removal_node_removes_everything():
    g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)],
                   labels=np.zeros(5, dtype=int),
                   train=np.ones(5, dtype=bool), test=None)
    out = apply_removal(g, UnlearnRequest(kind="node", nodes=(0,)))
    assert out.num_edges == 0
    assert np.all(out.features[0] == 0.0)
    assert not out.train_mask[0]
    assert out.n == g.n                # the slot stays


def test_apply_removal_errors():
    g = labeled_path()
    with pytest.raises(RequestError):
        apply_removal(g, UnlearnRequest(kind="edge", edges=((0, 4),)))
    with pytest.raises(IndexError):
        apply_removal(g, UnlearnRequest(kind="node", nodes=(9,)))
    g2 = make_graph(4, [(0, 1)], labels=np.zeros(4, dtype=int),
                    train=np.array([True, True, False, False]))
    with pytest.raises(RequestError):
        apply_removal(g2, UnlearnRequest(kind="node", nodes=(2,)))


def test_apply_removal_names_first_missing_edge_in_sorted_order():
    g = labeled_path()
    request = UnlearnRequest(kind="edge", edges=((4, 2), (1, 2), (3, 0)))
    with pytest.raises(RequestError, match=r"^edge \(0, 3\) does not exist$"):
        apply_removal(g, request)


def test_apply_removal_leaves_input_untouched():
    g = labeled_path()
    snap_idx = g.indices.copy()
    snap_feat = g.features.copy()
    apply_removal(g, UnlearnRequest(kind="node", nodes=(2,)))
    assert np.array_equal(g.indices, snap_idx)
    assert np.array_equal(g.features, snap_feat)


def random_sbm(seed, classes=None):
    """A random sparse SBM and the generator that drew its shape."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 240))
    c = int(classes or rng.integers(2, 5))
    spec = SbmSpec(n=n, classes=c, p_in=float(rng.uniform(3.0, 8.0)) * c / n,
                   p_out=1.0 / n, num_features=c + 1, separation=1.0, train_fraction=0.6)
    return generate_sbm(spec, seed), rng


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


GRAPH_ARRAYS = ("indptr", "indices", "features", "labels", "train_mask", "test_mask")


@pytest.mark.parametrize("kind", REQUEST_KINDS)
@pytest.mark.parametrize("seed", range(5))
def test_removal_matches_rebuild_oracle_byte_for_byte(seed, kind):
    g, rng = random_sbm(seed)
    if kind == "edge":
        edges = g.undirected_edges()
        inside = edges[g.train_mask[edges].all(axis=1)]
        picks = rng.choice(len(inside), size=min(len(inside), 15), replace=False)
        # either orientation and a repeat: the request canonicalises them
        listed = np.vstack([inside[picks], inside[picks[:3], ::-1]])
        request = UnlearnRequest(kind="edge", edges=listed)
    else:
        request = UnlearnRequest(kind=kind, nodes=rng.choice(g.train_nodes(), 12,
                                                             replace=False))
    got, want = apply_removal(g, request), apply_removal_rebuild(g, request)
    assert got.n == want.n
    for name in GRAPH_ARRAYS:
        assert_same_bytes(getattr(got, name), getattr(want, name), name)


@pytest.mark.parametrize("seed", range(5))
def test_removal_names_the_same_missing_edge_as_the_rebuild_oracle(seed):
    g, rng = random_sbm(seed)
    g = make_graph(g.n, g.undirected_edges(), train=np.ones(g.n, dtype=bool), test=None)
    present = g.undirected_edges()[rng.choice(g.num_edges, 6, replace=False)]
    absent = [(u, v) for u, v in rng.integers(0, g.n, size=(40, 2)).tolist()
              if u != v and not g.has_edge(u, v)][:4]
    request = UnlearnRequest(kind="edge", edges=np.vstack([present, absent]))
    with pytest.raises(RequestError) as want:
        apply_removal_rebuild(g, request)
    with pytest.raises(RequestError) as got:
        apply_removal(g, request)
    assert str(got.value) == str(want.value)
    # a graph without edges: the first listed edge is the one named
    empty = make_graph(4, [], train=np.ones(4, dtype=bool), test=None)
    with pytest.raises(RequestError, match=r"^edge \(0, 2\) does not exist$"):
        apply_removal(empty, UnlearnRequest(kind="edge", edges=((2, 0), (1, 3))))


# ------------------------------------------------- partition assembly machinery

def pipeline_fixture(seed=0, n=24, classes=3):
    """Small trained setup: graph, operator, features, model, soft labels."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)] + \
            [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(n // 2)]
    edges = [(u, v) for u, v in edges if u != v]
    labels = np.arange(n) % classes
    feats = rng.standard_normal((n, 4))
    feats[np.arange(n), labels % 4] += 2.0
    train_mask = np.zeros(n, dtype=bool)
    train_mask[: int(0.8 * n)] = True
    g = make_graph(n, edges, features=feats, labels=labels,
                   train=train_mask, test=~train_mask)
    op = normalized_adjacency(g, r=0.5)
    cfg = PropagationConfig.s2gc(2)
    x = propagate(op, g.features, cfg)
    params = init_model(4, 6, classes, seed=seed)
    params, _ = train(params, x, g.labels, g.train_mask,
                      lr=0.01, weight_decay=5e-4, epochs=60)
    return g, op, cfg, x, params


def partition_fixture(seed=0, ue=(0, 3), hie=(1, 2, 4)):
    g, op, cfg, x, params = pipeline_fixture(seed)
    soft = predict(params, x)
    req = UnlearnRequest(kind="node", nodes=ue)
    g_after = apply_removal(g, req)
    op_after = normalized_adjacency(g_after, r=0.5)
    x_after = propagate(op_after, g_after.features, cfg)
    part = prepare_partition(g_after, x_after, np.asarray(ue), np.asarray(hie),
                             soft, params, x_before=x,
                             positives_per_anchor=3, negatives_per_anchor=3,
                             seed=seed)
    return part, params, x_after, x


def rest_of(part, n):
    """Nodes outside UE and HIE."""
    return np.setdiff1d(np.arange(n), np.concatenate([part.ue, part.hie]))


def test_partition_covers_node_set():
    part, _, x_after, _ = partition_fixture()
    united = np.concatenate([part.ue, part.hie, rest_of(part, len(x_after))])
    assert np.array_equal(np.sort(united), np.arange(len(x_after)))


def test_partition_rejects_overlap():
    g, op, cfg, x, params = pipeline_fixture()
    soft = predict(params, x)
    with pytest.raises(ConfigError):
        prepare_partition(g, x, np.array([0, 1]), np.array([1, 2]), soft,
                          params, x_before=x, positives_per_anchor=5,
                          negatives_per_anchor=5, seed=0)


@pytest.mark.parametrize("ue, hie, error", [
    ([0], [1, -1], IndexError),       # HIE -1 used to mark the last node
    ([-1], [1, 2], IndexError),
    ([1.5], [2, 3], ConfigError),     # UE 1.5 used to run as node 1
    ([0], [1.5, 2], ConfigError),
], ids=["hie-minus-one", "ue-minus-one", "ue-fraction", "hie-fraction"])
def test_partition_rejects_bad_node_ids(ue, hie, error):
    g, op, cfg, x, params = pipeline_fixture()
    soft = predict(params, x)
    with pytest.raises(error, match="outside" if error is IndexError else "integers"):
        prepare_partition(g, x, ue, hie, soft, params, x_before=x,
                          positives_per_anchor=3, negatives_per_anchor=3, seed=0)


def test_partition_rejects_negative_sample_counts():
    g, op, cfg, x, params = pipeline_fixture()
    soft = predict(params, x)
    for positives, negatives in ((-1, 5), (5, -1)):
        with pytest.raises(ConfigError):
            prepare_partition(g, x, np.array([0]), np.array([1, 2]), soft, params,
                              x_before=x, positives_per_anchor=positives,
                              negatives_per_anchor=negatives, seed=0)


def test_partition_caches_pre_removal_rows():
    part, _, _, x_before = partition_fixture()
    assert np.array_equal(part.x[:part.ue.size], x_before[part.ue])


def test_partition_pools_stay_in_bounds():
    part, _, x_after, _ = partition_fixture()
    rest = set(rest_of(part, len(x_after)))
    ue_hie = set(part.ue) | set(part.hie)
    for i, anchor in enumerate(part.hie):
        assert set(part.positives[i]) <= rest
        assert set(part.negatives[i]) <= ue_hie - {int(anchor)}


def test_partition_others_index_rows_of_x():
    # the contrastive term gathers emb rows at others with mode="clip",
    # which would hide an index outside the working set
    g, op, cfg, x, params = pipeline_fixture(seed=1)
    soft = predict(params, x)
    parts = [path_partition([True] * 4 + [False] * 2)]
    for seed, (positives, negatives) in enumerate(((3, 3), (1, 7), (7, 1), (0, 4), (5, 0))):
        ue = np.array([0, 3])
        g_after = apply_removal(g, UnlearnRequest(kind="node", nodes=(0, 3)))
        x_after = propagate(normalized_adjacency(g_after, r=0.5), g_after.features, cfg)
        parts.append(prepare_partition(g_after, x_after, ue, np.array([1, 2, 4, 9, 17]), soft,
                                       params, x_before=x, positives_per_anchor=positives,
                                       negatives_per_anchor=negatives, seed=seed))
        parts.append(partition_fixture(seed=seed)[0])
    for part in parts:
        assert part.others.shape[0] == part.anchor.size
        assert ((0 <= part.others) & (part.others < len(part.x))).all()


def test_partition_memory_matches_original_view_of_after_rows():
    part, params, x_after, _ = partition_fixture()
    assert np.allclose(part.memory, predict(params, x_after[part.hie]), atol=1e-15)


def test_partition_deterministic_in_seed():
    a, _, _, _ = partition_fixture(seed=4)
    b, _, _, _ = partition_fixture(seed=4)
    assert np.array_equal(a.target, b.target)
    for pa, pb in zip(a.positives, b.positives):
        assert np.array_equal(pa, pb)


# original soft labels on a 6-node path: the original model puts nodes 1
# and 5 in class 1 and the rest in class 0; no two rows are equal
PATH_SOFT = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3],
                      [0.6, 0.4], [0.55, 0.45], [0.35, 0.65]])


def path_partition(train, soft=PATH_SOFT):
    """Unlearn nodes 1 and 2 of a 6-node path, without HIE, given the
    training mask and the original model's soft labels."""
    n = 6
    g = make_graph(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                   labels=np.array([0, 1, 1, 0, 0, 0]),
                   train=np.array(train, dtype=bool), test=None)
    op = normalized_adjacency(g, r=0.5)
    cfg = PropagationConfig.s2gc(1)
    x = propagate(op, g.features, cfg)
    params = identity_head(np.eye(3, 2))
    g_after = apply_removal(g, UnlearnRequest(kind="node", nodes=(1, 2)))
    x_after = propagate(normalized_adjacency(g_after, 0.5), g_after.features, cfg)
    return prepare_partition(g_after, x_after, np.array([1, 2]),
                             np.array([], dtype=np.int64), soft, params, x_before=x,
                             positives_per_anchor=5, negatives_per_anchor=5, seed=0)


def test_partition_target_shares_argmax():
    # non-members 4 (class 0) and 5 (class 1): node 1 (class 1) gets
    # node 5's soft labels and node 2 (class 0) gets node 4's
    part = path_partition([True] * 4 + [False] * 2)
    assert np.array_equal(part.target, PATH_SOFT[[5, 4]])


def test_partition_unlearns_every_node_of_a_class():
    # UE {1, 2} is all of class 1 and node 5, the one non-member, is
    # class 0: both targets fall back to the whole pool
    soft = PATH_SOFT.copy()
    soft[[2, 5]] = soft[[5, 2]]
    part = path_partition([True] * 5 + [False], soft)
    assert np.array_equal(part.target, soft[[5, 5]])


def test_partition_fails_without_non_member():
    # every node trains, so there is no non-member to draw a target from
    with pytest.raises(DataError):
        path_partition([True] * 6)


def assert_same_partition(got: EntityPartition, want: EntityPartition):
    for field in dataclasses.fields(EntityPartition):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("positives", "negatives"):
            assert len(a) == len(b), field.name
            for x, y in zip(a, b):
                assert_same_bytes(x, y, field.name)
        elif field.name == "scatter":
            assert a.shape == b.shape
            for part in ("data", "indices", "indptr"):
                assert_same_bytes(getattr(a, part), getattr(b, part), f"scatter.{part}")
        else:
            assert_same_bytes(a, b, field.name)


@pytest.mark.parametrize("seed", range(6))
def test_partition_matches_loop_oracle_byte_for_byte(monkeypatch, seed):
    g, rng = random_sbm(seed, classes=int(3 + seed % 3))
    n, c = g.n, g.num_classes
    train = rng.permutation(g.train_nodes())
    ue, hie_train = train[:20], train[20:32]
    hie = np.concatenate([hie_train, rng.choice(g.test_nodes(), 8, replace=False)])
    # the original model's classes: c - 1 holds only training UE and HIE
    # nodes, so no pool member shares it and its UE draw from the whole pool
    predicted = rng.integers(0, c - 1, n)
    predicted[np.concatenate([ue[:4], hie_train[:3]])] = c - 1
    soft = rng.dirichlet(np.ones(c), size=n)
    soft[np.arange(n), predicted] += 1.0
    soft /= soft.sum(axis=1, keepdims=True)
    params = init_model(g.num_features, 4, c, seed)
    x_after, x_before = rng.standard_normal((2, n, g.num_features))

    made = []
    default_rng = np.random.default_rng

    def tracked(*args):
        made.append(default_rng(*args))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", tracked)
    for positives, negatives in ((3, 3), (0, 4), (5, 0), (1, 7), (6, 2)):
        for h in (hie, hie[:0]):
            args = (g, x_after, ue, h, soft, params, x_before)
            kwargs = dict(positives_per_anchor=positives, negatives_per_anchor=negatives,
                          seed=seed)
            got = prepare_partition(*args, **kwargs)
            want = prepare_partition_loop(*args, **kwargs)
            assert_same_partition(got, want)
            # the generator stands where the loop left it
            assert made[-2].integers(2 ** 62) == made[-1].integers(2 ** 62)


@pytest.mark.parametrize("seed", range(3))
def test_positives_come_only_from_the_anchors_own_class(seed):
    # class c - 1 holds only UE and HIE nodes: its anchors get no
    # positives from other classes and are skipped; every other anchor's
    # positives share its class
    g, rng = random_sbm(seed, classes=3)
    n, c = g.n, g.num_classes
    train = rng.permutation(g.train_nodes())
    ue, hie = np.sort(train[:20]), np.sort(train[20:40])
    predicted = rng.integers(0, c - 1, n)
    predicted[np.concatenate([ue[:4], hie[:5]])] = c - 1
    soft = np.eye(c)[predicted] + 0.1
    soft /= soft.sum(axis=1, keepdims=True)
    x = rng.standard_normal((n, g.num_features))
    part = prepare_partition(g, x, ue, hie, soft, init_model(g.num_features, 4, c, seed),
                             x, positives_per_anchor=4, negatives_per_anchor=4, seed=seed)
    for a, pos in zip(hie, part.positives):
        assert (predicted[pos] == predicted[a]).all()
        assert (pos.size == 0) == (predicted[a] == c - 1)
    assert np.array_equal(hie[np.isin(part.hie_at, part.anchor)],
                          hie[predicted[hie] != c - 1])


@pytest.mark.parametrize("seed", range(4))
def test_gather_matches_loop_oracle_on_ragged_samples(seed):
    # prepare_partition draws rows of one width; _gather takes any widths,
    # and anchors without positives
    rng = np.random.default_rng(seed)
    n = 50
    nodes = rng.permutation(n)
    ue, hie, outside = np.sort(nodes[:6]), np.sort(nodes[6:14]), nodes[14:]
    inside = np.concatenate([ue, hie])
    positives = [np.sort(rng.choice(outside, int(rng.integers(0, 5)), replace=False))
                 for _ in hie]
    positives[0] = positives[0][:0]
    negatives = [np.sort(rng.choice(inside[inside != a], int(rng.integers(0, 6)),
                                    replace=False)) for a in hie]
    x_after = rng.standard_normal((n, 3))
    args = (ue, hie, rng.random((ue.size, 2)), rng.random((hie.size, 2)), positives,
            negatives, rng.standard_normal((ue.size, 3)), x_after)
    got, want = _gather(*args), gather_loop(*args)
    assert_same_partition(got, want)
    widths = got.valid.sum(axis=1)
    assert got.anchor.size < hie.size and widths.min() < widths.max()


# ------------------------------------------------------------ loss value oracles

def toy_partition(positives=(2,), zero_row=None):
    """Hand-built 4-node partition with full control over every pool;
    zero_row zeroes that post-removal row after the memory is taken."""
    x_after = np.array([[0.0, 0.0, 0.0],     # ue row in x_after is irrelevant
                        [1.0, 0.0, 0.0],     # hie anchor
                        [1.0, 1.0, 0.0],     # positive
                        [1.0, 0.0, 1.0]])    # negative
    params = identity_head(np.eye(3, 2))
    memory = predict(params, x_after[[1]])
    if zero_row is not None:
        x_after[zero_row] = 0.0
    part = _gather(ue=np.array([0]), hie=np.array([1]), target=np.array([[0.25, 0.75]]),
                   memory=memory, positives=[np.array(positives, dtype=np.int64)],
                   negatives=[np.array([3])], ue_rows=np.array([[2.0, 0.0, 1.0]]),
                   x_after=x_after)
    return part, params, x_after


def toy_loss(lam, tau=0.5, l2_coef=5e-4):
    part, params, _ = toy_partition()
    return fused_loss(params, part, lam=lam, tau=tau, l2_coef=l2_coef,
                      buf=FinetuneBuffers(params, part))


def test_target_loss_matches_direct_formula():
    part, params, _ = toy_partition()
    value = toy_loss(1.0)[2]["target"]
    soft = predict(params, part.x[:part.ue.size])[0]
    t = np.array([0.25, 0.75])
    assert value == pytest.approx(np.sum(t * np.log(t / soft)), abs=1e-12)


def test_contrastive_symmetric_pair_gives_log_two():
    # positive and negative sit at the same cosine to the anchor, so the
    # softmax mass splits evenly and the log-ratio is exactly ln 2
    value = toy_loss(1.0, tau=0.5)[2]["contrastive"]
    assert value == pytest.approx(np.log(2.0), abs=1e-12)


def test_contrastive_skips_anchor_without_positives():
    part, params, _ = toy_partition(positives=())
    assert part.anchor.size == 0
    parts = fused_loss(params, part, lam=1.0, tau=0.5, l2_coef=5e-4,
                       buf=FinetuneBuffers(params, part))[2]
    assert parts["contrastive"] == 0.0


def test_forgetting_loss_is_sum_of_parts():
    # the total is the lam-weighted sum of the four reported parts
    for lam in (0.0, 0.3, 1.0):
        total, _, parts = toy_loss(lam, tau=0.5)
        forget = parts["target"] + parts["contrastive"]
        reason = parts["l2"] + parts["kl"]
        assert total == pytest.approx(lam * forget + (1 - lam) * reason, abs=1e-12)


def test_reasoning_loss_zero_at_original_params():
    # memory was produced by these params on these rows: KL must be 0,
    # so the whole loss is the bare weight penalty
    _, params, _ = toy_partition()
    value, _, parts = toy_loss(0.0, l2_coef=0.25)
    l2 = sum(float(np.sum(a * a)) for _, a in params.items())
    assert parts["kl"] == pytest.approx(0.0, abs=1e-12)
    assert value == pytest.approx(0.25 * l2, abs=1e-12)


def test_reasoning_kl_one_hot_versus_uniform_is_log_c():
    part, _, _ = toy_partition()
    part.memory = np.array([[1.0, 0.0]])
    # zero weights: current prediction is uniform over 2 classes
    zero = identity_head(np.zeros((3, 2)))
    _, _, parts = fused_loss(zero, part, lam=0.0, tau=0.5, l2_coef=0.0,
                             buf=FinetuneBuffers(zero, part))
    assert parts["kl"] == pytest.approx(np.log(2.0), abs=1e-12)


# ------------------------------------------------------------- gradient checks

def test_every_loss_term_passes_fd_check_both_modes():
    part, _, _, _ = partition_fixture(seed=2)
    params = init_model(4, 6, 3, seed=3)
    for lam in (0.0, 0.3, 1.0):
        err = grad_check(params,
                         lambda p: fused_loss(p, part, lam=lam, tau=0.5, l2_coef=5e-4,
                                              buf=FinetuneBuffers(p, part))[:2],
                         seed=1, num_probes=20)
        assert err <= 1e-4, f"lambda={lam}: rel err {err}"


# ------------------------------------------------------------------- fused loss

def test_fused_loss_matches_oracle_both_modes():
    # a zero embedding (here: the anchor, then the positive) has no
    # direction, so it must add nothing, not NaN, to the gradient
    cases = [toy_partition(), toy_partition(positives=()),
             toy_partition(zero_row=1), toy_partition(zero_row=2)]
    part, trained, x_after, _ = partition_fixture(seed=2)
    cases += [(part, trained, x_after), (part, init_model(4, 6, 3, seed=3), x_after)]
    for part, params, x_after in cases:
        for lam in (0.0, 0.1, 1.0):
            v_ref, g_ref, parts_ref = loss_oracle(params, part, x_after, lam=lam)
            value, grads, parts = fused_loss(params, part, lam=lam, tau=0.5, l2_coef=5e-4,
                                             buf=FinetuneBuffers(params, part))
            assert value == pytest.approx(v_ref, rel=1e-12, abs=1e-12)
            assert set(parts) == set(parts_ref)
            for name, ref in parts_ref.items():
                assert parts[name] == pytest.approx(ref, rel=1e-12, abs=1e-12), name
            assert set(grads) == set(g_ref)
            for name, ref in g_ref.items():
                assert np.all(np.isfinite(grads[name])), name
                assert np.allclose(grads[name], ref, rtol=1e-12, atol=1e-12), name


def test_working_set_stacks_ue_cache_over_after_rows():
    part, _, x_after, x_before = partition_fixture(seed=1)
    assert np.array_equal(part.x[:part.ue.size], x_before[part.ue])
    assert np.array_equal(part.x[part.ue.size:], x_after[part.rows])
    assert np.array_equal(part.x[part.hie_at], x_after[part.hie])
    assert not np.isin(part.rows, part.ue).any()


# ------------------------------------------------------------- lambda mixture

def test_mixed_loss_endpoints_are_exact():
    # at lam=1 only the forgetting parts count, at lam=0 only l2 + kl; the
    # half that weighs zero is still computed and reported
    part, params, x_after = toy_partition()
    v1, _, parts1 = toy_loss(1.0)
    assert v1 == parts1["target"] + parts1["contrastive"]
    v0, _, parts0 = toy_loss(0.0)
    assert v0 == parts0["l2"] + parts0["kl"]
    assert parts1 == parts0
    assert parts1["l2"] > 0.0 and parts0["target"] > 0.0 and parts0["contrastive"] > 0.0
    for name, ref in loss_oracle(params, part, x_after, lam=0.5)[2].items():
        assert parts1[name] == pytest.approx(ref, rel=1e-12, abs=1e-12), name


def test_mixed_loss_is_convex_combination():
    lam = 0.3
    v, g, _ = toy_loss(lam)
    v_f, g_f, _ = toy_loss(1.0)
    v_r, g_r, _ = toy_loss(0.0)
    assert v == pytest.approx(lam * v_f + (1 - lam) * v_r, abs=1e-12)
    for name in g:
        assert np.allclose(g[name], lam * g_f[name] + (1 - lam) * g_r[name],
                           rtol=1e-12, atol=1e-12)


def test_mixed_loss_validates_lambda():
    # finetune checks lambda once per run; fused_loss takes it as given
    part, params, _, _ = partition_fixture(seed=1)
    for lam in (1.5, -0.1):
        with pytest.raises(ConfigError, match="lambda"):
            finetune(params, part, lr=0.01, epochs=5, lam=lam, tau=0.5, l2_coef=5e-4)


# -------------------------------------------------------------------- finetune

def test_finetune_validation_errors():
    part, params, _, _ = partition_fixture(seed=1)
    with pytest.raises(ConfigError):
        finetune(params, part, lr=-1.0, epochs=50, lam=0.5, tau=0.5, l2_coef=5e-4)
    with pytest.raises(ConfigError):
        finetune(params, part, lr=0.01, epochs=-1, lam=0.5, tau=0.5, l2_coef=5e-4)
    with pytest.raises(ConfigError):
        finetune(params, part, lr=0.01, epochs=50, lam=2.0, tau=0.5, l2_coef=5e-4)
    with pytest.raises(ConfigError):
        finetune(params, part, lr=0.01, epochs=50, lam=0.5, tau=0.0, l2_coef=5e-4)
    with pytest.raises(ConfigError, match="l2_coef"):
        finetune(params, part, lr=0.01, epochs=50, lam=0.5, tau=0.5, l2_coef=-1.0)


def test_finetune_zero_epochs_and_zero_lr():
    part, params, _, _ = partition_fixture(seed=1)
    out, log = finetune(params, part,
                        lr=0.01, epochs=0, lam=0.5, tau=0.5, l2_coef=5e-4)
    assert log.epochs == []
    assert np.array_equal(out.w_pre, params.w_pre)
    out2, log2 = finetune(params, part,
                          lr=0.0, epochs=3, lam=0.5, tau=0.5, l2_coef=5e-4)
    assert len(log2.epochs) == 3
    assert np.array_equal(out2.w_pre, params.w_pre)


def test_finetune_deterministic_and_input_untouched():
    part, params, _, _ = partition_fixture(seed=1)
    snap = params.flat_copy()[0]
    a, la = finetune(params, part,
                     lr=0.01, epochs=10, lam=0.5, tau=0.5, l2_coef=5e-4)
    b, lb = finetune(params, part,
                     lr=0.01, epochs=10, lam=0.5, tau=0.5, l2_coef=5e-4)
    assert np.array_equal(params.w_pre, snap.w_pre)
    assert np.array_equal(a.w_pre, b.w_pre)
    assert la.epochs == lb.epochs


def test_finetune_matches_fresh_buffer_loop_with_textbook_adam():
    # finetune reuses one set of buffers across epochs; the same epochs
    # on fresh buffers with a per-tensor Adam give the same bytes and log,
    # also when an anchor without positives is left out of the block
    for drop_positives in (False, True):
        for lam in (0.0, 0.1, 0.5, 1.0):
            part, params, x_after, _ = partition_fixture(seed=1)
            if drop_positives:
                part = _gather(part.ue, part.hie, part.target, part.memory,
                               [part.positives[0][:0], *part.positives[1:]],
                               part.negatives, part.x[:part.ue.size], x_after)
            out, log = finetune(params, part,
                                lr=0.01, epochs=8, lam=lam, tau=0.5, l2_coef=5e-4)
            ref = params.flat_copy()[0]
            oracle = TextbookAdam(ref, lr=0.01)
            assert part.anchor.size == part.hie.size - drop_positives
            for epoch, entry in enumerate(log.epochs):
                value, grads, parts = fused_loss(ref, part, lam=lam, tau=0.5, l2_coef=5e-4,
                                                 buf=FinetuneBuffers(ref, part))
                assert entry == {"epoch": epoch, "total": value, **parts}
                oracle.step(ref, grads)
            for (name, arr), (_, expect) in zip(out.items(), ref.items()):
                assert arr.tobytes() == expect.tobytes(), f"{drop_positives}/{lam}/{name}"


def test_finetune_log_entries_have_all_components():
    part, params, _, _ = partition_fixture(seed=1)
    _, log = finetune(params, part,
                      lr=0.01, epochs=2, lam=0.5, tau=0.5, l2_coef=5e-4)
    for i, entry in enumerate(log.epochs):
        assert entry["epoch"] == i
        assert set(entry) == {"epoch", "total", "target", "contrastive", "l2", "kl"}


def test_finetune_log_reports_every_term_at_lambda_endpoints():
    # the half that weighs zero is logged too, each term as the oracle
    # computes it at that epoch's parameters
    part, params, x_after, _ = partition_fixture(seed=1)
    for lam in (0.0, 1.0):
        _, log = finetune(params, part, lr=0.01, epochs=3, lam=lam, tau=0.5, l2_coef=5e-4)
        for epoch, entry in enumerate(log.epochs):
            at, _ = finetune(params, part, lr=0.01, epochs=epoch, lam=lam, tau=0.5,
                             l2_coef=5e-4)
            _, _, ref = loss_oracle(at, part, x_after, lam=lam)
            for name, val in ref.items():
                assert entry[name] == pytest.approx(val, rel=1e-12, abs=1e-12), (lam, name)
            assert entry["target"] > 0.0 and entry["contrastive"] > 0.0 and entry["l2"] > 0.0


def test_finetune_reads_only_working_set_rows():
    part, params, _, _ = partition_fixture(seed=1)
    _, log = finetune(params, part,
                      lr=0.01, epochs=4, lam=0.5, tau=0.5, l2_coef=5e-4)
    allowed = set(part.hie)
    for pos, neg in zip(part.positives, part.negatives):
        allowed |= set(int(v) for v in pos)
        allowed |= set(int(v) for v in neg)
    read = set(int(v) for v in log.rows_read)
    assert read <= allowed
    # UE rows must come from the pre-removal cache, never from x_after
    assert read.isdisjoint(set(int(v) for v in part.ue))


def test_finetune_first_epoch_reasoning_starts_at_weight_penalty():
    # at lam=0 from the original parameters the KL term opens at zero
    part, params, _, _ = partition_fixture(seed=3)
    _, log = finetune(params, part,
                      lr=0.01, epochs=1, lam=0.0, tau=0.5, l2_coef=5e-4)
    entry = log.epochs[0]
    l2 = 5e-4 * sum(float(np.sum(a * a)) for _, a in params.items())
    assert entry["kl"] == pytest.approx(0.0, abs=1e-9)
    assert entry["total"] == pytest.approx(l2, rel=1e-9)


# --------------------------------------------------------------------- retrain

def test_retrain_matches_manual_training_route():
    g, _, cfg, _, _ = pipeline_fixture(seed=5)
    request = UnlearnRequest(kind="node", nodes=(0, 3))
    run = RunConfig(k=2, scheme="s2gc", r=0.5, hidden=6, epochs=30)
    state = retrain_state(g, request, run, seed=5)
    after = apply_removal(g, request)
    x = propagate(normalized_adjacency(after, 0.5), after.features, cfg)
    fresh = init_model(after.num_features, 6, after.num_classes, seed=5)
    expect, expect_hist = train(fresh, x, after.labels, after.train_mask,
                                lr=run.lr, weight_decay=run.weight_decay,
                                epochs=run.epochs)
    assert np.array_equal(state.x_tilde, x)
    assert state.history == expect_hist
    for (_, a), (_, b) in zip(state.params.items(), expect.items()):
        assert np.array_equal(a, b)
