"""Learnable head over precomputed propagated features.

The head is a one-hidden-layer MLP:
    hidden = relu(X @ w_emb + b_emb); logits = hidden @ w_pre + b_pre,
and its embedding is the hidden layer.

All arithmetic is float64 and all gradients are written out by hand, so
training is bit-reproducible for a fixed seed.  One training epoch is
one forward pass, one backward pass and one Adam step, in buffers made
once per run:
  - the hidden layer's matmul, bias and ReLU are written in place into
    one (rows, hidden) buffer, and the backward pass masks with
    emb > 0, which is the same set as pre-activation > 0, NaN included;
  - softmax takes its row max and row sum column by column (see
    softmax), which gives numpy's own bits without its per-row loop;
  - the parameters optimise updates, and the gradients StepBuffers
    holds, are views into one float64 vector each, so the Adam step is a
    few in-place operations on two vectors.

Checkpoints are binary: magic "GUWT", the mode byte 1, the dims
(features, hidden, classes) as 64-bit little-endian ints, then the
tensors row-major as little-endian float64 in declaration order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError, DataError, ShapeError
from .fileio import read_bytes, write_bytes

CHECKPOINT_MAGIC = b"GUWT"
_MODE_BYTE = 1      # the MLP head's byte; any other is rejected
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class ModelParams:
    """The head's tensors: the embedding layer, then the output layer."""

    w_emb: np.ndarray
    b_emb: np.ndarray
    w_pre: np.ndarray
    b_pre: np.ndarray

    def items(self):
        """(name, array) pairs in declaration order."""
        return [("w_emb", self.w_emb), ("b_emb", self.b_emb),
                ("w_pre", self.w_pre), ("b_pre", self.b_pre)]

    def flat_copy(self):
        """(copy, vector): a copy whose tensors are views into one new
        float64 vector, in declaration order, and that vector."""
        vector = np.concatenate([np.ravel(arr) for _, arr in self.items()], dtype=np.float64)
        return ModelParams(*_views(vector, [arr.shape for _, arr in self.items()])), vector

    @property
    def num_classes(self) -> int:
        return int(self.b_pre.shape[0])

    @property
    def num_inputs(self) -> int:
        return int(self.w_emb.shape[0])


def _views(vector: np.ndarray, shapes) -> list:
    """Consecutive views of the 1-D vector, one per shape in order."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[offset:offset + size].reshape(shape))
        offset += size
    return views


def init_model(num_features: int, hidden: int, num_classes: int,
               seed: int) -> ModelParams:
    """Uniform init scaled by 1/sqrt(fan_in), deterministic in the seed."""
    if num_features < 1 or num_classes < 1:
        raise ConfigError("feature and class counts must be at least 1")
    if hidden < 1:
        raise ConfigError("hidden width must be at least 1")
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return ModelParams(w_emb=uniform(num_features, (num_features, hidden)),
                       b_emb=uniform(num_features, (hidden,)),
                       w_pre=uniform(hidden, (hidden, num_classes)),
                       b_pre=uniform(hidden, (num_classes,)))


class StepBuffers:
    """Preallocated arrays for one forward and backward pass, sized for
    one parameter shape and row count.

    forward_cache, backprop_cached and cross_entropy write every result
    into the buffers they are given, so a loop that reuses one
    StepBuffers allocates nothing per step.  What they return are views
    into it, overwritten by the next call given the same buffers.  The
    gradients are views into one vector, grad_vector, in the order of
    params.items().
    """

    def __init__(self, params: ModelParams, rows: int):
        width = params.b_emb.shape[0]
        self.logits = np.empty((rows, params.num_classes))
        self.row = np.empty((rows, 1))          # softmax row maxima, then row sums
        self.demb = np.empty((rows, width))     # gradient at the embedding, then before the ReLU
        names, shapes = zip(*((name, arr.shape) for name, arr in params.items()))
        self.grad_vector = np.empty(sum(math.prod(shape) for shape in shapes))
        self.grads = dict(zip(names, _views(self.grad_vector, shapes)))
        self.emb = np.empty((rows, width))
        self.active = np.empty((rows, width), dtype=bool)


def softmax(z: np.ndarray, out: np.ndarray | None = None,
            row: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax.  out (which may be z itself) receives the result
    and row, shaped like z with a last axis of 1, the row maxima and sums;
    each is allocated when not given.

    The result is bit-identical to np.max and np.sum over the last axis,
    but both run as a chain over the class columns, which skips numpy's
    per-row reduction loop.  A maximum is exact in any order.  Below 8
    classes numpy adds a row's entries left to right, as the chain does;
    from 8 on it sums them in blocks (pairwise), so np.sum is kept there.
    """
    classes = z.shape[-1]
    if row is None:
        row = np.empty(z.shape[:-1] + (1,))
    np.copyto(row, z[..., :1])
    for c in range(1, classes):
        np.maximum(row, z[..., c:c + 1], out=row)
    out = np.subtract(z, row, out=out)
    np.exp(out, out=out)
    if classes < 8:
        np.copyto(row, out[..., :1])
        for c in range(1, classes):
            row += out[..., c:c + 1]
    else:
        np.sum(out, axis=-1, keepdims=True, out=row)
    out /= row
    return out


def forward_cache(params: ModelParams, x: np.ndarray, buf: StepBuffers | None = None):
    """One forward pass keeping what the backward pass needs.

    Returns (emb, logits): the embedding and the pre-softmax scores,
    written into buf, or into fresh StepBuffers when buf is None.  The
    hidden layer's matmul, bias and ReLU all write into emb.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.num_inputs:
        raise ShapeError(f"input has {x.shape[1]} columns, model expects {params.num_inputs}")
    if buf is None:
        buf = StepBuffers(params, x.shape[0])
    z = buf.logits
    emb = np.matmul(x, params.w_emb, out=buf.emb)
    emb += params.b_emb
    np.maximum(emb, 0.0, out=emb)
    np.matmul(emb, params.w_pre, out=z)
    z += params.b_pre
    return emb, z


def predict(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Softmax of the logits of each input row."""
    z = forward_cache(params, x)[1]
    return softmax(z, out=z)


def _column_sums(d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.sum(d, axis=0, out=out) with its bits, in one pass over d.

    np.sum walks the rows one narrow inner loop at a time; einsum adds
    them in the same row order.  A single column np.sum sums pairwise,
    so it keeps np.sum.
    """
    if d.shape[1] == 1:
        return np.sum(d, axis=0, out=out)
    return np.einsum("ij->j", d, out=out)


def backprop_cached(params: ModelParams, x: np.ndarray, emb: np.ndarray,
                    dlogits: np.ndarray, demb: np.ndarray | None,
                    buf: StepBuffers) -> dict:
    """Parameter gradients from gradients at the logits (and, unless demb
    is None, at the embedding), given the forward_cache of the same rows x.

    The ReLU passes gradient where emb > 0, which is where its input was
    positive.  The gradients are written into buf; the inputs are left
    untouched.
    """
    x = np.atleast_2d(x)
    grads = buf.grads
    np.matmul(emb.T, dlogits, out=grads["w_pre"])
    _column_sums(dlogits, grads["b_pre"])
    dz1 = np.matmul(dlogits, params.w_pre.T, out=buf.demb)
    if demb is not None:
        dz1 += demb
    dz1 *= np.greater(emb, 0.0, out=buf.active)
    np.matmul(x.T, dz1, out=grads["w_emb"])
    _column_sums(dz1, grads["b_emb"])
    return grads


def _label_picks(y: np.ndarray, rows: int, num_classes: int) -> np.ndarray:
    """Flat positions of each row's class in a (rows, num_classes) array.
    IndexError unless y holds one class id in [0, num_classes) per row."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (rows,) or np.any((y < 0) | (y >= num_classes)):
        raise IndexError(f"labels must be {rows} class ids in [0, {num_classes})")
    return np.arange(rows) * num_classes + y


def cross_entropy(params: ModelParams, x: np.ndarray, y: np.ndarray, buf: StepBuffers,
                  picks: np.ndarray | None = None):
    """Mean cross-entropy over the given rows, with parameter gradients.

    Returns (loss, grads).  y holds one class id per row of x; picks, when
    given, is y's flat positions in the logits, np.arange(rows) * classes
    + y, which a loop can build once.  The backward pass reuses the
    forward pass's hidden layer, and the softmax and its gradient
    overwrite the logits in buf.
    """
    x = np.atleast_2d(x)
    b = x.shape[0]
    if picks is None:
        picks = _label_picks(y, b, params.num_classes)
    emb, z = forward_cache(params, x, buf)
    p = softmax(z, out=z, row=buf.row)
    flat = p.reshape(-1)
    loss = -np.mean(np.log(np.maximum(flat[picks], 1e-300)))
    flat[picks] -= 1.0          # p becomes the gradient at the logits
    p /= b
    return loss, backprop_cached(params, x, emb, p, None, buf)


class Adam:
    """Plain Adam with the ADAM_* constants; weight decay is added to the
    raw gradient.

    The moments m and v are flat vectors over every parameter in
    declaration order.  A step takes the parameters and their gradients
    as such vectors too (ModelParams.flat_copy, StepBuffers.grad_vector)
    and updates them with the same few in-place operations, in the same
    order a per-tensor update would use, so the result is bit-identical
    to it.
    """

    def __init__(self, params: ModelParams, lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        size = sum(arr.size for _, arr in params.items())
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._g = np.empty(size)
        self._tmp = np.empty(size)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """One update of the parameter vector theta in place; grad is read only."""
        self.t += 1
        g, tmp, m, v = grad, self._tmp, self.m, self.v
        if self.weight_decay:
            np.multiply(theta, self.weight_decay, out=tmp)
            g = np.add(grad, tmp, out=self._g)
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=tmp)
        tmp *= g
        v += tmp
        update = np.divide(m, 1 - ADAM_BETA1 ** self.t, out=tmp)
        update *= self.lr
        denom = np.divide(v, 1 - ADAM_BETA2 ** self.t, out=self._g)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        theta -= update


def optimise(params: ModelParams, objective, *, lr: float, weight_decay: float,
             epochs: int, what: str):
    """Full-batch Adam on objective(params) -> (value, gradient vector,
    {term: float}), the gradients flat in the order of params.items().

    Returns (new params, one {"epoch", "total", **terms} entry per epoch).
    The new params are views into one vector, which each step updates in
    place.  An overflow is checked instead of warned about: a value that
    is not finite raises DataError before its epoch's step.
    """
    if lr < 0 or weight_decay < 0 or epochs < 0:
        raise ConfigError("lr, weight_decay and epochs must be nonnegative")
    params, theta = params.flat_copy()
    opt = Adam(params, lr, weight_decay)
    entries = []
    for epoch in range(epochs):
        with np.errstate(all="ignore"):
            value, grad, terms = objective(params)
        if not np.isfinite(value):
            shown = ", ".join(f"{k} {v!r}" for k, v in terms.items())
            raise DataError(f"{what} objective is not finite at epoch {epoch}: {shown}")
        opt.step(theta, grad)
        entries.append({"epoch": epoch, "total": float(value), **terms})
    return params, entries


def train(params: ModelParams, x_tilde: np.ndarray, labels: np.ndarray,
          train_mask: np.ndarray, *, lr: float, weight_decay: float, epochs: int):
    """Full-batch Adam cross-entropy training on the masked rows, by optimise.
    Returns (trained params, the loss before each epoch's step)."""
    train_ids = np.flatnonzero(np.asarray(train_mask))
    if train_ids.size == 0:
        raise ConfigError("training mask selects no nodes")
    y = np.asarray(labels, dtype=np.int64)[train_ids]
    if np.any(y < 0):
        raise DataError("every training node must carry a label")
    x = np.asarray(x_tilde, dtype=np.float64)[train_ids]
    buf = StepBuffers(params, x.shape[0])
    picks = _label_picks(y, x.shape[0], params.num_classes)

    def objective(p):
        loss, _ = cross_entropy(p, x, y, buf, picks)
        return loss, buf.grad_vector, {"cross_entropy": float(loss)}

    params, entries = optimise(params, objective, lr=lr, weight_decay=weight_decay,
                               epochs=epochs, what="training")
    return params, [e["total"] for e in entries]


def save_checkpoint(params: ModelParams, path) -> None:
    """Serialize params: GUWT magic, mode byte, dims, tensors in order."""
    blob = [CHECKPOINT_MAGIC, bytes([_MODE_BYTE]),
            struct.pack("<3Q", *params.w_emb.shape, params.num_classes)]
    blob += [np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in params.items()]
    write_bytes(path, b"".join(blob))


def load_checkpoint(path) -> ModelParams:
    raw = read_bytes(path)
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    if len(raw) < 5 or raw[4] != _MODE_BYTE:
        raise CheckpointError(f"{path}: unknown mode byte")
    header_end = 5 + 8 * 3
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    f, h, c = struct.unpack("<3Q", raw[5:header_end])
    shapes = [(f, h), (h,), (h, c), (c,)]     # w_emb, b_emb, w_pre, b_pre
    # exact ints: np.prod wraps in int64, so a huge header could pass this check
    expect = header_end + 8 * sum(math.prod(s) for s in shapes)
    if len(raw) != expect:
        raise CheckpointError(f"{path}: expected {expect} bytes, got {len(raw)}")
    vector = np.frombuffer(raw, dtype="<f8", offset=header_end).astype(np.float64)
    return ModelParams(*_views(vector, shapes))
