"""Shared fixtures and independent oracles used across the test suite.

The dense helpers here deliberately re-derive every quantity from first
principles (dense matrices, explicit walk enumeration) so they cannot
share a bug with the sparse implementation under test.
"""

import numpy as np
import pytest

from graphunlearn.datagen import SbmSpec
import scipy.sparse as sp

from graphunlearn.errors import ConfigError, DataError, RequestError
from graphunlearn.graph import (Graph, PropagationConfig, SparseOperator, build_graph,
                                edge_keys, node_ids, propagate)
from graphunlearn.influence import (SELECTION_MODES, HieSelection, _check_soft_labels,
                                    _safe_ratio)
from graphunlearn.model import ModelParams, predict
from graphunlearn.unlearn import (EntityPartition, UnlearnRequest, _by_class, _sample_pool,
                                  check_request)


def generate_sbm_materialized(spec: SbmSpec, seed: int) -> Graph:
    """Reference for datagen.generate_sbm: every class block's (u, v)
    index arrays built in full, then one rng.random call per block."""
    rng = np.random.default_rng(seed)
    n, c = spec.n, spec.classes
    labels = rng.permutation(np.arange(n, dtype=np.int64) % c)
    members = [np.flatnonzero(labels == ci) for ci in range(c)]

    chunks = []
    for ci in range(c):
        for cj in range(ci, c):
            p = spec.p_in if ci == cj else spec.p_out
            if ci == cj:
                iu, ju = np.triu_indices(members[ci].size, k=1)
                us, vs = members[ci][iu], members[ci][ju]
            else:
                us = np.repeat(members[ci], members[cj].size)
                vs = np.tile(members[cj], members[ci].size)
            hit = rng.random(us.size) < p
            if np.any(hit):
                chunks.append(np.column_stack([us[hit], vs[hit]]))
    edges = np.vstack(chunks) if chunks else np.empty((0, 2), dtype=np.int64)

    features = rng.standard_normal((n, spec.num_features))
    features[np.arange(n), labels] += spec.separation

    perm = rng.permutation(n)
    cut = int(round(spec.train_fraction * n))
    train = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:cut]] = True
    test[perm[cut:]] = True
    return build_graph(n, edges, features, labels, train, test)


def make_graph(n, edges, *, features=None, labels=None,
               train=None, test=None, num_features=3):
    """Small-graph constructor with sensible defaults for tests."""
    if features is None:
        rng = np.random.default_rng(0)
        features = rng.standard_normal((n, num_features))
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    if train is None:
        train = np.ones(n, dtype=bool)
    if test is None:
        test = ~np.asarray(train, dtype=bool)
    return build_graph(n, edges, features, labels, train, test)


def identity_head(w_pre):
    """An MLP head whose hidden layer passes a nonnegative row through
    unchanged (w_emb = I, b_emb = 0, b_pre = 0): on such rows the
    embedding is the row and the logits are row @ w_pre."""
    w_pre = np.asarray(w_pre, dtype=np.float64)
    f = w_pre.shape[0]
    return ModelParams(w_emb=np.eye(f), b_emb=np.zeros(f), w_pre=w_pre,
                       b_pre=np.zeros(w_pre.shape[1]))


@pytest.fixture
def path3():
    # 0 - 1 - 2
    return make_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def path5():
    # 0 - 1 - 2 - 3 - 4
    return make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def star5():
    # hub 0, leaves 1..4
    return make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def random_connected_graph(rng, n, extra_edges=2):
    """Connected undirected graph: random spanning tree plus a few extras."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    tries = 0
    while extra_edges > 0 and tries < 50 * (extra_edges + 1):
        tries += 1
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges.add(key)
            extra_edges -= 1
    return sorted(edges)


def dense_adjacency_hat(graph: Graph):
    """A + I as a dense float array."""
    n = graph.n
    a = np.zeros((n, n))
    for u, v in graph.undirected_edges():
        a[u, v] = 1.0
        a[v, u] = 1.0
    a += np.eye(n)
    return a

def dense_operator(graph: Graph, r: float):
    """Dense reference for the degree-normalized operator."""
    a_hat = dense_adjacency_hat(graph)
    d_hat = a_hat.sum(axis=1)
    return np.diag(d_hat ** -r) @ a_hat @ np.diag(d_hat ** (r - 1.0))


def dense_pi(graph: Graph, r: float, weights):
    """Dense reference for the weighted propagation series."""
    s = dense_operator(graph, r)
    n = graph.n
    pi = np.zeros((n, n))
    power = np.eye(n)
    for w in weights:
        pi += w * power
        power = power @ s
    return pi


def walk_pi_matrix(graph: Graph, weights):
    """Walk-enumeration oracle for the r=1 propagation matrix.

    For row normalization the (v, u) entry of S^l is the sum over all
    length-l walks v -> u in the self-looped graph of the product of
    1/deg_hat(step source).  Enumerates every walk explicitly via DFS,
    so it is exponential in depth and only usable for tiny graphs.
    """
    n = graph.n
    depth = len(weights) - 1
    nbrs = [graph.indices[graph.indptr[v]:graph.indptr[v + 1]].tolist() + [v]
            for v in range(n)]
    d_hat = [float(len(nbrs[v])) for v in range(n)]
    pi = np.zeros((n, n))

    def walk(start, node, level, prod):
        pi[start, node] += weights[level] * prod
        if level == depth:
            return
        for nxt in nbrs[node]:
            walk(start, nxt, level + 1, prod / d_hat[node])

    for v in range(n):
        walk(v, v, 0, 1.0)
    return pi


def influence_oracle(pi, soft, seeds):
    """Combined influence score of every node against the seed set S.

    pi is a dense propagation matrix (dense_pi or walk_pi_matrix).  Each
    channel is max over S of the per-seed influence divided by its sum
    over S, 0 where nothing arrives: the topology channel reads |Pi[:, S]|,
    the feature channel |Pi[:, S]| * (Z Z[S]^T).  Seed rows are scored
    like any other node; callers mask them.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    topology = np.abs(pi[:, seeds])
    feature = topology * (soft @ soft[seeds].T)
    score = np.zeros(pi.shape[0])
    for channel in (topology, feature):
        total = channel.sum(axis=1)
        reached = total > 0.0
        score[reached] += channel.max(axis=1)[reached] / total[reached]
    return score


def propagation_column(op: SparseOperator, config: PropagationConfig, u: int) -> np.ndarray:
    """Column u of Pi = sum_l w_l S^l, i.e. Pi[:, u]: propagate on the one-hot e_u.

    The reference every column route of select_hie must match bit for
    bit; it shares no route with them but propagate's own.
    """
    e = np.zeros(op.n)
    e[u] = 1.0
    return propagate(op, e, config)


def select_hie_per_column(op: SparseOperator, config: PropagationConfig, ue,
                           soft_labels: np.ndarray, theta: float, budget: int,
                           mode: str) -> HieSelection:
    """Reference greedy selection: every seed's column by propagation_column.

    The per-column select_hie as it stood before seed columns were
    computed in sparse blocks and dense tails; select_hie must give the
    same picks and the same score bits on every route.
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


def _objective(theta, part, x_after, lam, tau, l2_coef):
    """Fine-tune objective and its four parts, entity by entity.

    Follows the formulas of the unlearn module docstring with plain
    loops.  theta may be complex: every branch (ReLU, the clamps, the
    zero-norm test) reads the real part, so a complex-step probe takes
    the same branch as the real evaluation.
    """
    def embed(x):
        z1 = x @ theta["w_emb"] + theta["b_emb"]
        return np.where(z1.real > 0.0, z1, 0.0)

    def prob(x):
        z = embed(x) @ theta["w_pre"] + theta["b_pre"]
        e = np.exp(z - z.real.max())
        return e / e.sum()

    def norm(v):
        return np.sqrt(np.sum(v * v))

    def floor(v, eps):
        return v if v.real > eps else eps

    ue_rows = part.x[:part.ue.size]

    def row(v):
        hit = np.flatnonzero(part.ue == v)
        return ue_rows[hit[0]] if hit.size else x_after[v]

    def kl(target, x):
        p = prob(x)
        return sum(t * (np.log(t) - np.log(floor(p[c], 1e-12)))
                   for c, t in enumerate(target) if t > 0.0)

    parts = dict.fromkeys(("target", "contrastive", "l2", "kl"), 0.0)
    for x, t in zip(ue_rows, part.target):
        parts["target"] += kl(t, x)
    for a, pos, neg in zip(part.hie, part.positives, part.negatives):
        if len(pos) == 0:
            continue
        e_a = embed(row(a))
        w = []
        for b in np.concatenate([pos, neg]):
            e_b = embed(row(b))
            n_a, n_b = norm(e_a), norm(e_b)
            cos = e_a @ e_b / (n_a * n_b) \
                if n_a.real > 1e-12 and n_b.real > 1e-12 else 0.0
            w.append(np.exp(cos / tau))
        parts["contrastive"] += np.log(sum(w)) - np.log(sum(w[:len(pos)]))
    parts["l2"] = l2_coef * sum(np.sum(arr * arr) for arr in theta.values())
    for h, mem in zip(part.hie, part.memory):
        parts["kl"] += kl(mem, x_after[h])
    value = lam * (parts["target"] + parts["contrastive"]) \
        + (1.0 - lam) * (parts["l2"] + parts["kl"])
    return value, parts


def loss_oracle(params, part, x_after, lam, tau=0.5, l2_coef=5e-4, step=1e-30):
    """Independent reference for unlearn.fused_loss: (value, grads, parts).

    The value comes from a per-entity loop over the partition; the
    gradient of every parameter coordinate from the complex step
    Im f(theta + i*step*e_j) / step, so no backward pass is written by
    hand.
    """
    theta = {name: np.asarray(arr, dtype=np.float64) for name, arr in params.items()}
    value, parts = _objective(theta, part, x_after, lam, tau, l2_coef)
    grads = {}
    for name, arr in theta.items():
        grads[name] = np.zeros(arr.shape)
        for idx in np.ndindex(arr.shape):
            probe = {key: val.astype(np.complex128) for key, val in theta.items()}
            probe[name][idx] += 1j * step
            grads[name][idx] = _objective(probe, part, x_after,
                                          lam, tau, l2_coef)[0].imag / step
    return float(value), grads, {key: float(val) for key, val in parts.items()}


def grad_check(params, loss_fn, seed=0, num_probes=20, step=1e-6):
    """Compare analytic gradients against central finite differences.

    loss_fn maps params to (scalar, grads dict).  num_probes random
    parameter coordinates are probed; returns the max relative error
    |analytic - fd| / max(1, |analytic|, |fd|).
    """
    rng = np.random.default_rng(seed)
    _, grads = loss_fn(params)
    names = [name for name, _ in params.items()]
    worst = 0.0
    for _ in range(num_probes):
        name = names[rng.integers(len(names))]
        arr = getattr(params, name)
        idx = tuple(rng.integers(d) for d in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + step
        up, _ = loss_fn(params)
        arr[idx] = orig - step
        down, _ = loss_fn(params)
        arr[idx] = orig
        fd = (up - down) / (2.0 * step)
        an = grads[name][idx]
        err = abs(an - fd) / max(1.0, abs(an), abs(fd))
        worst = max(worst, err)
    return worst


def bfs_distances(graph, seeds, max_hops=None):
    """Hop distance from the seed set to every node, -1 when unreached.

    A plain queue over the CSR rows, the reference for the k-hop
    baseline's distances.
    """
    dist = np.full(graph.n, -1, dtype=np.int64)
    queue = sorted({int(s) for s in seeds})
    for s in queue:
        dist[s] = 0
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        if max_hops is not None and dist[u] >= max_hops:
            continue
        for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


class ReadReject(Exception):
    """Raised by the reference readers: `kind` names the library error the
    real reader must raise, `line` the 1-based index among non-blank lines."""

    def __init__(self, kind, line):
        super().__init__(f"{kind} at line {line}")
        self.kind, self.line = kind, line


def _nonblank_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln.strip()]


def edge_list_oracle(path):
    """Line-by-line reference for fileio.read_edge_list: (m, 2) int64."""
    rows = []
    for i, line in enumerate(_nonblank_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ReadReject("DataError", i)
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ReadReject("DataError", i) from None
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


def labels_oracle(path, n):
    """Line-by-line reference for fileio.read_labels: a node outside
    [0, n), a class outside [-1, n) or a node listed twice rejects its line."""
    labels = np.full(n, -1, dtype=np.int64)
    seen = set()
    for i, line in enumerate(_nonblank_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ReadReject("DataError", i)
        try:
            node, cls = int(parts[0]), int(parts[1])
        except ValueError:
            raise ReadReject("DataError", i) from None
        if not 0 <= node < n or not -1 <= cls < n or node in seen:
            raise ReadReject("DataError", i)
        seen.add(node)
        labels[node] = cls
    return labels


def mask_oracle(path, n):
    """Line-by-line reference for fileio.read_mask: (n,) bool."""
    mask = np.zeros(n, dtype=bool)
    for i, line in enumerate(_nonblank_lines(path), start=1):
        try:
            node = int(line.strip())
        except ValueError:
            raise ReadReject("DataError", i) from None
        if not 0 <= node < n:
            raise ReadReject("MaskError", i)
        mask[node] = True
    return mask


class TextbookAdam:
    """Independent reference for model.Adam: one update per tensor.

    m and v are dicts of per-tensor moments; the arithmetic, and its
    order, is the textbook update that model.Adam's flat step must
    reproduce bit for bit.
    """

    def __init__(self, params, lr, weight_decay=0.0,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}

    def step(self, params, grads):
        self.t += 1
        for name, arr in params.items():
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * arr
            m = self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** self.t)
            v_hat = v / (1 - self.beta2 ** self.t)
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ------------------------------------------- request-path per-entity oracles
# The request path as it stood with a Python loop per entity: removal by
# rebuilding through build_graph, one forgetting-target draw per UE node,
# one partition row per anchor, and one similarity gather per seed.  The
# library's array forms must give the same bytes.

def apply_removal_rebuild(graph: Graph, request: UnlearnRequest) -> Graph:
    """Reference for unlearn.apply_removal: the post-removal edge list,
    re-derived and rebuilt through build_graph."""
    ue = check_request(graph, request)
    edges = graph.undirected_edges()
    features = graph.features.copy()
    train_mask = graph.train_mask.copy()

    if request.kind == "edge":
        keys = edge_keys(edges, graph.n)
        drop = edge_keys(request.edges, graph.n)
        missing = np.flatnonzero(~np.isin(drop, keys))
        if missing.size:
            u, v = request.edges[missing[0]]
            raise RequestError(f"edge ({u}, {v}) does not exist")
        edges = edges[~np.isin(keys, drop)]
    elif request.kind == "feature":
        features[ue] = 0.0
    else:  # node
        gone = np.isin(edges[:, 0], ue) | np.isin(edges[:, 1], ue)
        edges = edges[~gone]
        features[ue] = 0.0
        train_mask[ue] = False

    return build_graph(graph.n, edges, features, graph.labels,
                       train_mask, graph.test_mask)


def prepare_partition_loop(graph_after, x_after, ue, hie, original_soft, original_params,
                           x_before, *, positives_per_anchor, negatives_per_anchor, seed):
    """Reference for unlearn.prepare_partition: one rng.integers call per
    UE node for its forgetting target, and gather_loop's per-anchor rows."""
    if positives_per_anchor < 0 or negatives_per_anchor < 0:
        raise ConfigError("positives and negatives per anchor must be nonnegative")
    num_classes = original_params.num_classes
    x_after = np.asarray(x_after, dtype=np.float64)
    ue = node_ids(ue, graph_after.n, "unlearned entity")
    hie = node_ids(hie, graph_after.n, "influenced node")
    if np.intersect1d(ue, hie).size:
        raise ConfigError("unlearned entities cannot be selected as influenced nodes")
    keep = np.ones(graph_after.n, dtype=bool)
    keep[ue] = False
    keep[hie] = False
    rest = np.flatnonzero(keep)
    predicted = np.argmax(original_soft, axis=1)

    rng = np.random.default_rng(seed)
    outside = ~graph_after.train_mask
    outside[ue] = False
    pool = np.flatnonzero(outside)
    if pool.size == 0:
        raise DataError("no non-training node outside the unlearned set to draw "
                        "a forgetting target from")
    by_class = _by_class(pool, predicted, num_classes)
    target = np.empty((ue.size, num_classes))
    for i, u in enumerate(ue):
        cands = by_class[predicted[u]][0]
        if cands.size == 0:
            cands = pool
        target[i] = original_soft[cands[rng.integers(len(cands))]]

    rest_split = _by_class(rest, predicted, num_classes)
    neg_split = _by_class(np.concatenate([ue, hie]), predicted, num_classes)
    positives, negatives = [], []
    for a, lab in zip(hie, predicted[hie]):
        positives.append(_sample_pool(rng, rest_split[lab][0], None, positives_per_anchor))
        same, other = neg_split[lab]
        negatives.append(_sample_pool(rng, same[same != a], other, negatives_per_anchor))

    memory = predict(original_params, x_after[hie])
    return gather_loop(ue, hie, target, memory, positives, negatives,
                       np.asarray(x_before, dtype=np.float64)[ue], x_after)


def gather_loop(ue, hie, target, memory, positives, negatives,
                ue_rows: np.ndarray, x_after: np.ndarray) -> EntityPartition:
    """Reference for unlearn._gather: others, valid and positive filled
    one anchor row at a time."""
    nodes = np.unique(np.concatenate([hie, *positives, *negatives]).astype(np.int64))
    rows = nodes[~np.isin(nodes, ue)]
    x = np.concatenate([ue_rows, x_after[rows]])
    order = np.concatenate([ue, rows])
    sorter = np.argsort(order)

    def where(ids):
        return sorter[np.searchsorted(order, ids, sorter=sorter)]

    kept = [i for i, pos in enumerate(positives) if len(pos)]
    lists = [np.concatenate([positives[i], negatives[i]]).astype(np.int64) for i in kept]
    width = max((len(ids) for ids in lists), default=0)
    others = np.zeros((len(kept), width), dtype=np.int64)
    valid = np.zeros((len(kept), width), dtype=bool)
    positive = np.zeros((len(kept), width), dtype=bool)
    for a, (i, ids) in enumerate(zip(kept, lists)):
        others[a, :ids.size] = where(ids)
        valid[a, :ids.size] = True
        positive[a, :len(positives[i])] = True
    flat = np.flatnonzero(valid)
    scatter = sp.csr_matrix((np.ones(flat.size), (others.ravel()[flat], flat)),
                            shape=(x.shape[0], others.size))
    return EntityPartition(ue=ue, hie=hie, target=target, memory=memory,
                           positives=positives, negatives=negatives, x=x, rows=rows,
                           hie_at=where(hie), anchor=where(hie[kept]), others=others,
                           valid=valid, positive=positive, scatter=scatter)


def fold_sparse_per_seed(agg, out: sp.csr_matrix, block: np.ndarray, z: np.ndarray) -> None:
    """Reference for influence._fold_sparse: each seed's similarities
    z @ z[u] gathered at its own ball entries."""
    max_t, sum_t, max_f, sum_f = agg
    col_t = np.abs(out.data)
    sim = np.empty_like(col_t)
    for b, u in enumerate(block):
        lo, hi = out.indptr[b], out.indptr[b + 1]
        sim[lo:hi] = (z @ z[u])[out.indices[lo:hi]]
    col_f = col_t * sim
    np.maximum.at(max_t, out.indices, col_t)
    np.add.at(sum_t, out.indices, col_t)
    np.maximum.at(max_f, out.indices, col_f)
    np.add.at(sum_f, out.indices, col_f)
