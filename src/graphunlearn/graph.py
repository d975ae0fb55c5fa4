"""Graph storage and weight-free feature propagation.

The graph is undirected and kept in CSR form (indptr/indices over node
ids).  Self-loops are never stored; they enter only when the normalized
operator is built.  Propagation computes a weighted sum of powers

    X_tilde = sum_{l=0..k} w_l * S^l @ X

without ever materializing S^l, so the cost is k sparse-dense products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, MaskError, ShapeError

UNLABELED = -1


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with features, labels and split masks.

    Attributes:
        n: number of nodes.
        indptr, indices: CSR adjacency (symmetric, sorted, no self-loops,
            no duplicates).  Every stored edge appears in both directions.
        features: (n, f) float64 node features.
        labels: (n,) int64, UNLABELED (-1) marks nodes without a label.
        train_mask, test_mask: (n,) bool, disjoint.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.features, self.labels,
                    self.train_mask, self.test_mask):
            arr.setflags(write=False)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size) // 2

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels != UNLABELED]
        return int(labeled.max()) + 1 if labeled.size else 0

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            raise IndexError(f"node {u} out of range for graph with n={self.n}")
        row = self.indices[self.indptr[u]:self.indptr[u + 1]]
        pos = np.searchsorted(row, v)
        return pos < row.size and row[pos] == v

    def undirected_edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, sorted."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])

    def adjacency(self) -> sp.csr_matrix:
        """0/1 adjacency as scipy CSR."""
        data = np.ones(self.indices.size, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def train_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.train_mask)

    def test_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.test_mask)


def _as_mask(n: int, mask, name: str) -> np.ndarray:
    """A copy of a bool array of shape (n,); anything else is a MaskError."""
    arr = np.asarray(mask)
    if arr.dtype != bool or arr.shape != (n,):
        raise MaskError(f"{name} must be a bool array of shape ({n},), "
                        f"got {arr.dtype} {arr.shape}")
    return arr.copy()


def edge_keys(edges, n: int) -> np.ndarray:
    """One int64 key u*n+v per (u, v) pair; keys sort like the pairs, row-major."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return edges[:, 0] * np.int64(n) + edges[:, 1]


def _int_ids(ids, name: str) -> np.ndarray:
    """ids as int64 of their own shape, by the one rule of what an id is: ints
    (not bools) and whole floats within int64 pass, anything else is a ConfigError."""
    try:
        arr = np.asarray(ids)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    kind = arr.dtype.kind
    if kind == "f":
        ok = ((arr == np.trunc(arr)) & (arr >= -2.0 ** 63) & (arr < 2.0 ** 63)).all()
    else:
        ok = kind == "i" or kind == "u" and arr.max(initial=0) < 2 ** 63
    if ok and not isinstance(ids, np.ndarray):  # numpy reads a listed bool as 0 or 1
        ok = not {bool, np.bool_} & set(map(type, np.asarray(ids, dtype=object).flat))
    if not ok:
        raise ConfigError(f"{name} ids must be integers within int64, not bools or fractions")
    return arr.astype(np.int64, copy=False)


def node_ids(ids, n: int, name: str) -> np.ndarray:
    """A node-id set as sorted unique int64: ConfigError unless a 1-d list of
    ids by the id rule, IndexError naming the smallest id outside [0, n)."""
    arr = _int_ids(ids, name)
    if arr.ndim != 1:
        raise ConfigError(f"{name} ids must be a 1-d list, got shape {arr.shape}")
    out = np.unique(arr)
    bad = out[(out < 0) | (out >= n)]
    if bad.size:
        raise IndexError(f"{name} {int(bad[0])} outside [0, {n})")
    return out


def build_graph(n, edges, features, labels, train_mask, test_mask) -> Graph:
    """Construct a validated Graph from an edge list.

    Duplicate edges are collapsed, (u, v) is mirrored to (v, u), and
    self-loops in the input are dropped.

    Args:
        n: number of nodes.
        edges: (m, 2) int array of (u, v) pairs, 0-indexed.
        features: (n, f) array, finite float values; copied.
        labels: (n,) int array, -1 for unlabeled.
        train_mask, test_mask: (n,) bool arrays.

    Raises:
        ConfigError: n < 0, or an edge endpoint or label that is not an id.
        IndexError: edge endpoint outside [0, n).
        ShapeError: an odd number of endpoints, or feature row count differs from n.
        DataError: non-finite feature values or malformed labels.
        MaskError: a mask is not an (n,) bool array, or the masks overlap.
    """
    if n < 0:
        raise ConfigError(f"node count must be nonnegative, got {n}")
    edges = _int_ids(edges, "edge endpoint")
    if edges.size % 2:
        raise ShapeError(f"edges must be (u, v) pairs, got shape {edges.shape}")
    edges = edges.reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise IndexError(f"edge endpoint outside [0, {n})")

    features = np.array(features, dtype=np.float64, order="C")
    if features.ndim != 2 or features.shape[0] != n:
        raise ShapeError(f"features must be (n, f) with n={n}, got {features.shape}")
    if not np.isfinite(features).all():
        raise DataError("features contain non-finite values")

    edges = edges[edges[:, 0] != edges[:, 1]]
    # symmetrize, sort an encoded key (row-major order), drop repeats
    both = np.vstack([edges, edges[:, ::-1]])
    keys = np.sort(edge_keys(both, n))
    keys = keys[np.diff(keys, prepend=np.int64(-1)) != 0]
    src, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    labels = _int_ids(labels, "label").reshape(-1).copy()
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and labels.min() < UNLABELED:
        raise DataError("labels must be class ids or -1 for unlabeled")

    tr = _as_mask(n, train_mask, "train_mask")
    te = _as_mask(n, test_mask, "test_mask")
    if np.any(tr & te):
        raise MaskError("train and test masks overlap")

    return Graph(n=n, indptr=indptr, indices=indices, features=features,
                 labels=labels, train_mask=tr, test_mask=te)


@dataclass(frozen=True)
class SparseOperator:
    """Normalized adjacency S = D^(-r) (A + I) D^(r-1), CSR-backed."""

    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def normalized_adjacency(graph: Graph, r: float) -> SparseOperator:
    """Build the propagation operator with self-loops added on the fly.

    r = 0.5 gives the symmetric normalization D^(-1/2) (A+I) D^(-1/2),
    r = 1 the row-stochastic random-walk operator D^(-1) (A+I).
    """
    if not 0.0 <= r <= 1.0:
        raise ConfigError(f"normalization exponent r must lie in [0, 1], got {r}")
    a_hat = graph.adjacency() + sp.identity(graph.n, format="csr", dtype=np.float64)
    d_hat = np.asarray(a_hat.sum(axis=1)).ravel()
    left = sp.diags(d_hat ** (-r))
    right = sp.diags(d_hat ** (r - 1.0))
    s = (left @ a_hat @ right).tocsr()
    s.sort_indices()
    return SparseOperator(matrix=s)


@dataclass(frozen=True)
class PropagationConfig:
    """The per-power weight vector w; its length fixes the steps k."""

    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ConfigError(f"weight vector must be 1-d and nonempty, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ConfigError("propagation weights must be finite")
        object.__setattr__(self, "weights", tuple(w.tolist()))

    @property
    def k(self) -> int:
        """Propagation steps: one fewer than the weights."""
        return len(self.weights) - 1

    @staticmethod
    def _check_steps(k: int) -> None:
        if k < 0:
            raise ConfigError(f"propagation steps must be nonnegative, got {k}")

    @classmethod
    def sgc(cls, k: int) -> "PropagationConfig":
        """Only the k-th power: w_k = 1, all other weights 0."""
        cls._check_steps(k)
        return cls(weights=(0.0,) * k + (1.0,))

    @classmethod
    def s2gc(cls, k: int) -> "PropagationConfig":
        """Uniform average over powers 0..k."""
        cls._check_steps(k)
        return cls(weights=(1.0 / (k + 1),) * (k + 1))

    @classmethod
    def gbp(cls, k: int, beta: float) -> "PropagationConfig":
        """Geometric decay w_l = beta * (1 - beta)^l."""
        cls._check_steps(k)
        if not 0.0 < beta <= 1.0:
            raise ConfigError(f"gbp decay beta must lie in (0, 1], got {beta}")
        return cls(weights=tuple(beta * (1.0 - beta) ** l for l in range(k + 1)))


def propagate(op: SparseOperator, x: np.ndarray, config: PropagationConfig) -> np.ndarray:
    """Apply sum_l w_l S^l to a vector or feature matrix.

    Powers are built iteratively (cur = S @ cur) so only k sparse-dense
    products are performed.  Output row i depends only on the input rows
    and never on other output rows, so rows could be computed in any
    order or split across workers without changing the result.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != op.n:
        raise ShapeError(f"input has {x.shape[0]} rows, operator expects {op.n}")
    out = config.weights[0] * x
    add_hops(op, config, out, x, 0)
    return out


def add_hops(op: SparseOperator, config: PropagationConfig, out: np.ndarray,
             cur: np.ndarray, done: int) -> None:
    """Add hops done+1..k to out in place, given cur = S^done x: the one hop loop.

    S @ C sums each entry over neighbours in ascending column order for
    a vector and a block alike, so a column's bits never depend on its
    block or on the route that reached hop `done`."""
    w = config.weights
    for l in range(done + 1, config.k + 1):
        cur = op.matrix @ cur
        out += w[l] * cur
