"""Synthetic stochastic block model graphs with Gaussian class features.

Node classes are balanced (sizes differ by at most one) and assigned by
a random permutation, every unordered pair is an independent Bernoulli
draw (p_in inside a class, p_out across), and features are unit-variance
Gaussians whose class-c mean sits at separation * e_c.  Everything is
drawn from one generator in a fixed order, so a seed pins the graph
bit-for-bit.

Every pair takes one uniform draw, so time grows as n^2.  The draws of
a class block are taken PAIR_CHUNK at a time and only the hits are
kept, so memory is O(n + edges + PAIR_CHUNK).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import Graph, build_graph

# pair draws held at once (512 KB); of 2^12..2^20 the fastest at n = 4000 and 16000
PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class SbmSpec:
    """Parameters of one synthetic graph draw."""

    n: int
    classes: int
    p_in: float
    p_out: float
    num_features: int
    separation: float
    train_fraction: float

    def __post_init__(self):
        if self.n < 1 or self.classes < 1:
            raise ConfigError("n and classes must be positive")
        if self.num_features < self.classes:
            raise ConfigError("need at least one feature axis per class")
        for name in ("p_in", "p_out"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")


def _hits(rng, count: int, p: float, draw: np.ndarray) -> np.ndarray:
    """Flat indices i in [0, count) whose uniform draw falls below p.

    The draws come in chunks written into `draw`, in the same order and
    with the same values as one rng.random(count) call.
    """
    hits = [np.empty(0, dtype=np.int64)]
    for start in range(0, count, PAIR_CHUNK):
        part = rng.random(out=draw[:min(PAIR_CHUNK, count - start)])
        hits.append(np.flatnonzero(part < p) + start)
    return np.concatenate(hits)


def generate_sbm(spec: SbmSpec, seed: int) -> Graph:
    """Draw one graph.  Same spec and seed give an identical Graph.

    Class block (ci, cj), ci <= cj, draws its pairs in row-major order:
    the upper triangle of members[ci] when ci == cj, otherwise every
    (members[ci][i], members[cj][j]).
    """
    rng = np.random.default_rng(seed)
    n, c = spec.n, spec.classes
    labels = rng.permutation(np.arange(n, dtype=np.int64) % c)
    members = [np.flatnonzero(labels == ci) for ci in range(c)]
    draw = np.empty(PAIR_CHUNK)

    chunks = [np.empty((0, 2), dtype=np.int64)]
    for ci in range(c):
        for cj in range(ci, c):
            mi, mj = members[ci].size, members[cj].size
            if ci == cj:
                # row i of the upper triangle starts at flat index i(2m - i - 1)/2
                i = np.arange(mi, dtype=np.int64)
                starts = i * (2 * mi - i - 1) // 2
                flat = _hits(rng, mi * (mi - 1) // 2, spec.p_in, draw)
                row = np.searchsorted(starts, flat, side="right") - 1
                col = flat - starts[row] + row + 1
            else:
                row, col = np.divmod(_hits(rng, mi * mj, spec.p_out, draw), mj)
            chunks.append(np.column_stack([members[ci][row], members[cj][col]]))
    edges = np.vstack(chunks)

    features = rng.standard_normal((n, spec.num_features))
    features[np.arange(n), labels] += spec.separation

    perm = rng.permutation(n)
    cut = int(round(spec.train_fraction * n))
    train = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:cut]] = True
    test[perm[cut:]] = True

    return build_graph(n, edges, features, labels, train, test)
