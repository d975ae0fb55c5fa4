"""Unlearning requests, graph surgery, and entity-specific fine-tuning.

A request names training entities (feature rows, nodes, or edges) to
revoke.  Removal never renumbers nodes: edges disappear, feature rows
are zeroed, removed nodes drop out of the training mask.

Fine-tuning minimizes one objective over a small working set,

    L = lam * (target + contrastive) + (1 - lam) * (l2 + kl)

with p(x) the softmax of the logits and e(x) the embedding of a row:

  forgetting (on the unlearned entities UE and the selected HIE)
    target       sum over u in UE of KL(t_u || p(x_u)), where t_u is the
                 original soft labels of one non-training node outside
                 UE, drawn once per run among the nodes the original
                 model puts in u's class (among all of them when none
                 is): UE should end up looking like data the model never
                 trained on, not confidently wrong
    contrastive  sum over HIE anchors a with sampled positives P_a and
                 negatives N_a of
                     log sum_{b in P_a + N_a} exp(cos(e_a, e_b) / tau)
                   - log sum_{b in P_a} exp(cos(e_a, e_b) / tau)
                 where P_a are same-label nodes outside the working set
                 and N_a are UE/HIE nodes; anchors without positives
                 are skipped

  reasoning (keeps the rest of the model intact)
    l2           l2_coef times the sum of every squared parameter
    kl           sum over h in HIE of KL(original soft labels of h ||
                 p(x_h))

Both KL terms clamp p below at 1e-12.  An embedding whose norm is at
most 1e-12 has no direction: its cosines add nothing to the gradient,
and an all-zero embedding has cosine 0 with every row.  All four terms
are computed and reported at every lam, 0 and 1 included.

The UE rows that the forgetting terms read are the propagated rows the
entities contributed while training, cached before removal; everything
else reads the post-removal propagated features.  The per-step work
therefore touches only UE, HIE and the sampled positives/negatives,
never the whole graph: prepare_partition draws that working set and
gathers its rows once (EntityPartition), and finetune runs every epoch
of model.optimise, the training loop, as one forward and one backward
pass over them (fused_loss), in buffers made once (FinetuneBuffers).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, RequestError
from .fileio import read_json_object, write_text
from .graph import Graph, _int_ids, edge_keys, node_ids
from .model import (ModelParams, StepBuffers, backprop_cached, forward_cache,
                    optimise, predict, softmax)

REQUEST_KINDS = ("feature", "node", "edge")


@dataclass(frozen=True)
class UnlearnRequest:
    """A revocation request: one kind plus exactly its matching field."""

    kind: str
    nodes: tuple = ()
    edges: tuple = ()

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise ConfigError(f"request kind must be one of {REQUEST_KINDS}, got {self.kind!r}")
        nodes = _int_ids(self.nodes, "request node")
        edges = _int_ids(self.edges, "request edge")
        if self.kind == "edge":
            if edges.ndim != 2 or edges.shape[1] != 2 or not edges.size or nodes.size:
                raise ConfigError("edge requests carry edges, as [u, v] pairs, and nothing else")
            for u, v in edges[edges[:, 0] == edges[:, 1]][:1].tolist():  # the first self edge
                raise ConfigError(f"self edge ({u}, {v}) is not a valid request entity")
            nodes, edges = (), tuple(sorted(set(map(tuple, np.sort(edges, axis=1).tolist()))))
        else:
            if nodes.ndim != 1 or not nodes.size or edges.size:
                raise ConfigError(f"{self.kind} requests carry nodes, as a list, and nothing else")
            nodes, edges = tuple(np.unique(nodes).tolist()), ()
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "UnlearnRequest":
        """Request from its JSON form: the keys kind, nodes and edges only."""
        for key in doc:
            if key not in ("kind", "nodes", "edges"):
                raise ConfigError(f"unknown request key {key!r}")
        if "kind" not in doc:
            raise ConfigError("request document is missing 'kind'")
        return cls(**doc)


def read_request(path) -> UnlearnRequest:
    return UnlearnRequest.from_dict(read_json_object(path, "request"))


def write_request(request: UnlearnRequest, path) -> None:
    write_text(path, json.dumps(request.to_dict(), sort_keys=True) + "\n")


def transform_request(request: UnlearnRequest) -> np.ndarray:
    """Unlearned-entity node set: the nodes themselves, or edge endpoints."""
    return np.unique(np.asarray(request.edges or request.nodes, dtype=np.int64))


def check_request(graph: Graph, request: UnlearnRequest) -> np.ndarray:
    """The request's unlearned-entity node set, checked against the graph.

    Raises IndexError for the first node outside [0, n) and RequestError
    for the first node that is not part of the training set.
    """
    ue = node_ids(transform_request(request), graph.n, "request node")
    outside = ue[~graph.train_mask[ue]]
    if outside.size:
        raise RequestError(f"node {int(outside[0])} is not in the training set")
    return ue


def apply_removal(graph: Graph, request: UnlearnRequest) -> Graph:
    """Carry out the requested removal; node count never changes.

    edge     listed edges vanish in both directions
    feature  feature rows of the listed nodes are zeroed
    node     incident edges vanish, the feature row is zeroed, and the
             node leaves the training mask

    The new Graph keeps the CSR entries not dropped, in their order, and
    shares every array the request leaves alone (all are read-only).
    Raises what check_request raises, and RequestError naming the first
    listed edge, in sorted order, that does not exist.
    """
    ue = check_request(graph, request)
    # the row of every CSR entry, and which entries stay (None: all of them)
    src = (None if request.kind == "feature"
           else np.repeat(np.arange(graph.n), np.diff(graph.indptr)))
    keep = None
    features, train_mask = graph.features, graph.train_mask

    if request.kind == "edge":
        # CSR entries sort like their keys; each listed (u, v) has u < v
        keys = src * np.int64(graph.n) + graph.indices
        pairs = np.asarray(request.edges, dtype=np.int64)
        drop = edge_keys(pairs, graph.n)
        at = np.searchsorted(keys, drop)
        found = at < keys.size
        found[found] = keys[at[found]] == drop[found]
        if not found.all():
            u, v = request.edges[np.argmin(found)]
            raise RequestError(f"edge ({u}, {v}) does not exist")
        keep = np.ones(keys.size, dtype=bool)
        keep[at] = False
        keep[np.searchsorted(keys, edge_keys(pairs[:, ::-1], graph.n))] = False
    else:
        features = features.copy()
        features[ue] = 0.0
        if request.kind == "node":
            gone = np.zeros(graph.n, dtype=bool)
            gone[ue] = True
            keep = ~(gone[src] | gone[graph.indices])
            train_mask = train_mask.copy()
            train_mask[ue] = False

    indptr, indices = graph.indptr, graph.indices
    if keep is not None:
        kept = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        indptr, indices = kept[indptr], indices[keep]
    return Graph(n=graph.n, indptr=indptr, indices=indices, features=features,
                 labels=graph.labels, train_mask=train_mask, test_mask=graph.test_mask)


@dataclass
class EntityPartition:
    """The working set of one fine-tune, drawn and gathered once per run.

    Everything random (forgetting targets, contrastive samples) is drawn
    once, so the fine-tune loop itself is fully deterministic.  x stacks
    the pre-removal propagated rows of UE (the data whose imprint is
    being erased; after a node removal its rows are zero) on the
    post-removal rows of the other working-set nodes.  The anchors that
    have positives index into x through `anchor` and `others`, the
    positives then negatives of each anchor padded to the longest list.
    """

    ue: np.ndarray
    hie: np.ndarray
    target: np.ndarray              # (|ue|, classes) soft labels of drawn non-members
    memory: np.ndarray              # (|hie|, classes) original soft labels
    positives: list                 # per anchor: node ids outside ue and hie
    negatives: list                 # per anchor: node ids in ue or hie
    x: np.ndarray                   # (|ue| + |rows|, f) every row the fine-tune reads
    rows: np.ndarray                # sorted node ids of x[|ue|:]: HIE and the samples
    hie_at: np.ndarray              # HIE's positions in x
    anchor: np.ndarray              # (A,) positions in x of the anchors with positives
    others: np.ndarray              # (A, M) their positives then negatives, padded
    valid: np.ndarray               # (A, M) real entries of others
    positive: np.ndarray            # (A, M) positive entries of others
    scatter: sp.csr_matrix          # (len(x), A*M) sums per-pair gradients onto x


def _by_class(ids: np.ndarray, predicted: np.ndarray, num_classes: int) -> list:
    """Per class c: (the ids predicted c, the other ids), both in the order of ids."""
    labels = predicted[ids]
    return [(ids[labels == c], ids[labels != c]) for c in range(num_classes)]


def _sample_pool(rng, matching: np.ndarray, others, count: int) -> np.ndarray:
    """Up to `count` draws without replacement from matching, then, if
    matching runs short and others is not None, from others."""
    take = matching[rng.permutation(matching.size)[:count]]
    if take.size < count and others is not None:
        extra = others[rng.permutation(others.size)[:count - take.size]]
        take = np.concatenate([take, extra])
    return np.sort(take)


def prepare_partition(graph_after: Graph, x_after: np.ndarray, ue, hie,
                      original_soft: np.ndarray, original_params: ModelParams,
                      x_before: np.ndarray, *, positives_per_anchor: int,
                      negatives_per_anchor: int, seed: int) -> EntityPartition:
    """Draw the working set for fine-tuning and gather its rows.

    Class assignments come from the original model's predictions (argmax
    of original_soft), so no labels are read.  Each u in UE, in
    ascending order, gets the original soft labels of one node drawn
    from the non-training nodes outside UE that share u's predicted
    class, or from all of them when none does; DataError when there are
    none at all.  Then each HIE anchor draws its contrastive positives
    only among the nodes of its own predicted class outside UE and HIE
    (so an anchor whose class has none gets none and is skipped), and
    its negatives among the other UE/HIE nodes of its class first, then
    among the rest of UE and HIE.  Last, the rows the fine-tune reads
    are gathered: UE's from x_before, every other node's from x_after.
    """
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
    # one draw per u in UE, in order: an index into the pool members of
    # u's class (kept ascending), or into the whole pool when there are none
    grouped = pool[np.argsort(predicted[pool], kind="stable")]
    count = np.bincount(predicted[pool], minlength=num_classes)
    cls = predicted[ue]
    empty = count[cls] == 0
    draw = rng.integers(0, np.where(empty, pool.size, count[cls]))
    picked = pool[draw]
    picked[~empty] = grouped[(np.cumsum(count) - count)[cls[~empty]] + draw[~empty]]
    target = original_soft[picked]

    # split once; an anchor is among the UE/HIE nodes of its own class only
    rest_split = _by_class(rest, predicted, num_classes)
    neg_split = _by_class(np.concatenate([ue, hie]), predicted, num_classes)
    positives, negatives = [], []
    for a, lab in zip(hie, predicted[hie]):
        positives.append(_sample_pool(rng, rest_split[lab][0], None, positives_per_anchor))
        same, other = neg_split[lab]
        negatives.append(_sample_pool(rng, same[same != a], other, negatives_per_anchor))

    # the KL memory is the original model's view of the post-removal
    # rows, so the reasoning term starts at exactly zero
    memory = predict(original_params, x_after[hie])
    return _gather(ue, hie, target, memory, positives, negatives,
                   np.asarray(x_before, dtype=np.float64)[ue], x_after)


def _gather(ue, hie, target, memory, positives, negatives,
            ue_rows: np.ndarray, x_after: np.ndarray) -> EntityPartition:
    """The partition of these draws: its rows, UE's from ue_rows and the
    rest from x_after, and the fixed contrastive index tensors."""
    nodes = np.unique(np.concatenate([hie, *positives, *negatives]).astype(np.int64))
    rows = nodes[~np.isin(nodes, ue)]
    x = np.concatenate([ue_rows, x_after[rows]])
    order = np.concatenate([ue, rows])
    sorter = np.argsort(order)

    def where(ids):
        return sorter[np.searchsorted(order, ids, sorter=sorter)]

    # row a: the a-th anchor with positives, its positives then its
    # negatives, padded; a row-major mask takes the entries in that order
    num_pos = np.array([len(ids) for ids in positives], dtype=np.int64)
    num_neg = np.array([len(ids) for ids in negatives], dtype=np.int64)
    kept = np.flatnonzero(num_pos)
    col = np.arange((num_pos + num_neg)[kept].max(initial=0))
    positive = col < num_pos[kept, None]
    valid = col < (num_pos + num_neg)[kept, None]
    others = np.zeros(valid.shape, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    others[positive] = where(np.concatenate([none, *positives]))
    others[valid & ~positive] = where(np.concatenate([none, *negatives])[
        np.repeat(num_pos > 0, num_neg)])
    flat = np.flatnonzero(valid)
    scatter = sp.csr_matrix((np.ones(flat.size), (others.ravel()[flat], flat)),
                            shape=(x.shape[0], others.size))
    return EntityPartition(ue=ue, hie=hie, target=target, memory=memory,
                           positives=positives, negatives=negatives, x=x, rows=rows,
                           hie_at=where(hie), anchor=where(hie[kept]), others=others,
                           valid=valid, positive=positive, scatter=scatter)


class FinetuneBuffers(StepBuffers):
    """StepBuffers plus the fine-tune's own temporaries for one working
    set: two (rows, width) arrays and one (anchors, samples, width)
    block, so that the epochs of one finetune call allocate none of them.
    """

    def __init__(self, params: ModelParams, part: EntityPartition):
        super().__init__(params, part.x.shape[0])
        self.cl_demb = np.empty_like(self.demb)     # the contrastive gradient at the embedding
        self.scratch = np.empty_like(self.demb)
        self.pairs = np.empty(part.others.shape + self.demb.shape[1:])


def _contrastive_fused(emb: np.ndarray, part: EntityPartition, tau: float,
                       buf: FinetuneBuffers):
    """The contrastive term over all anchors at once: (value, d value / d emb),
    the gradient written into buf.cl_demb."""
    demb = buf.cl_demb
    demb.fill(0.0)
    norms = np.linalg.norm(emb, axis=1)
    a = emb[part.anchor]
    # "clip" lets take write into out= without buffering the gather;
    # prepare_partition builds others inside [0, len(x))
    b = np.take(emb, part.others, axis=0, out=buf.pairs, mode="clip")
    na = norms[part.anchor]
    nb = norms[part.others]
    cos = np.einsum("amd,ad->am", b, a) / np.maximum(na[:, None] * nb, 1e-300)
    w = np.where(part.valid, np.exp(cos / tau), 0.0)
    pos_mass = (w * part.positive).sum(axis=1)
    total = w.sum(axis=1)
    value = float(np.sum(np.log(total) - np.log(pos_mass)))
    ds = (w / total[:, None] - part.positive * w / pos_mass[:, None]) / tau
    # zero-norm anchors and rows contribute nothing to the gradient; their
    # norms become 1 so that no division below can produce 0/0
    has_a, has_b = na > 1e-12, nb > 1e-12
    ds = ds * (part.valid & has_a[:, None] & has_b)
    na = np.where(has_a, na, 1.0)
    nb = np.where(has_b, nb, 1.0)
    # d cos / d a = (b/|b| - cos a/|a|) / |a|,  d cos / d b = (a/|a| - cos b/|b|) / |b|
    demb[part.anchor] += (np.einsum("am,amd->ad", ds / nb, b)
                          - (ds * cos).sum(axis=1)[:, None] * a / na[:, None]) / na[:, None]
    # b is not read again, so its block takes toward_anchor
    toward_anchor = np.multiply((ds / (nb * na[:, None]))[..., None], a[:, None, :],
                                out=buf.pairs)
    demb += part.scatter @ toward_anchor.reshape(-1, emb.shape[1])
    demb -= np.multiply((part.scatter @ (ds * cos / (nb * nb)).ravel())[:, None], emb,
                        out=buf.scratch)
    return value, demb


def _kl(target: np.ndarray, p: np.ndarray):
    """sum over rows of KL(target || p) with p clamped below at 1e-12:
    (value, gradient at the logits of p).  A clamped entry passes no
    gradient."""
    clamped = np.maximum(p, 1e-12)
    ratio = np.where(target > 0.0,
                     target * (np.log(np.maximum(target, 1e-300)) - np.log(clamped)), 0.0)
    active = p > 1e-12
    s_act = (target * active).sum(axis=1, keepdims=True)
    return float(ratio.sum()), p * s_act - target * active


def fused_loss(params: ModelParams, part: EntityPartition, lam: float, tau: float,
               l2_coef: float, buf: FinetuneBuffers):
    """The fine-tune objective in one forward and one backward pass over part.x.

    Returns (value, grads, parts): parts holds the four terms unweighted.
    The passes and their temporaries write into buf, and grads are views
    into it.  lam is taken as given; finetune checks it once per run.
    """
    emb, z = forward_cache(params, part.x, buf)
    soft = softmax(z)
    dlogits = np.zeros_like(z)
    nu = part.ue.size
    target, dz = _kl(part.target, soft[:nu])
    dlogits[:nu] = lam * dz
    contrastive, demb = _contrastive_fused(emb, part, tau, buf)
    demb *= lam
    kl, dz = _kl(part.memory, soft[part.hie_at])
    dlogits[part.hie_at] = (1.0 - lam) * dz

    grads = backprop_cached(params, part.x, emb, dlogits, demb, buf)
    squares = 0.0
    for name, arr in params.items():
        squares += float(np.sum(arr * arr))
        grads[name] += (1.0 - lam) * (2.0 * l2_coef * arr)
    l2 = l2_coef * squares
    value = lam * (target + contrastive) + (1.0 - lam) * (l2 + kl)
    return value, grads, {"target": target, "contrastive": contrastive, "l2": l2, "kl": kl}


@dataclass
class FinetuneLog:
    """Per-epoch loss components plus the feature rows that were read."""

    epochs: list
    rows_read: np.ndarray


def finetune(params: ModelParams, partition: EntityPartition, *, lr: float,
             epochs: int, lam: float, tau: float, l2_coef: float):
    """Adam fine-tuning of the mixed objective over the working set, by
    model.optimise (the training loop) without weight decay.

    Returns (new params, FinetuneLog): every loss term per epoch and the
    post-removal rows read, HIE and the sampled positives/negatives (UE's
    rows are cached).  DataError when the objective is not finite.
    """
    if l2_coef < 0:
        raise ConfigError(f"l2_coef must be nonnegative, got {l2_coef}")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    buf = FinetuneBuffers(params, partition)

    def objective(p):
        value, _, terms = fused_loss(p, partition, lam=lam, tau=tau, l2_coef=l2_coef, buf=buf)
        return value, buf.grad_vector, terms

    params, entries = optimise(params, objective, lr=lr, weight_decay=0.0,
                               epochs=epochs, what="fine-tune")
    return params, FinetuneLog(epochs=entries, rows_read=partition.rows)
