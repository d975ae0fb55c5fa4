"""Learnable head over precomputed propagated features.

The head is a one-hidden-layer MLP:
    hidden = relu(X @ w_emb + b_emb); logits = hidden @ w_pre + b_pre,
and its embedding is the hidden layer.

All arithmetic is float64 and all gradients are written out by hand, so
training is bit-reproducible for a fixed seed.  Checkpoints are binary:
magic "GUWT", the mode byte 1, the dims (features, hidden, classes) as
64-bit little-endian ints, then the tensors row-major as little-endian
float64 in declaration order.
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

    def copy(self) -> "ModelParams":
        return ModelParams(*(arr.copy() for _, arr in self.items()))

    @property
    def num_classes(self) -> int:
        return int(self.b_pre.shape[0])

    @property
    def num_inputs(self) -> int:
        return int(self.w_emb.shape[0])


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
    into it, overwritten by the next call given the same buffers.
    """

    def __init__(self, params: ModelParams, rows: int):
        width = params.b_emb.shape[0]
        self.logits = np.empty((rows, params.num_classes))
        self.row = np.empty((rows, 1))          # softmax row maxima, then row sums
        self.demb = np.empty((rows, width))     # gradient at the embedding, then at z1
        self.grads = {name: np.empty(arr.shape) for name, arr in params.items()}
        self.z1 = np.empty((rows, width))
        self.emb = np.empty((rows, width))
        self.active = np.empty((rows, width), dtype=bool)


def softmax(z: np.ndarray, out: np.ndarray | None = None,
            row: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax.  out (which may be z itself) receives the result
    and row, shaped like z with a last axis of 1, the row maxima and sums;
    each is allocated when not given."""
    row = np.max(z, axis=-1, keepdims=True, out=row)
    out = np.subtract(z, row, out=out)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True, out=row)
    return out


def forward_cache(params: ModelParams, x: np.ndarray, buf: StepBuffers | None = None):
    """One forward pass keeping what the backward pass needs.

    Returns (z1, emb, logits): z1 is the hidden pre-activation, emb the
    embedding and logits the pre-softmax scores.
    They are written into buf, or into fresh StepBuffers when buf is None.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.num_inputs:
        raise ShapeError(f"input has {x.shape[1]} columns, model expects {params.num_inputs}")
    if buf is None:
        buf = StepBuffers(params, x.shape[0])
    z = buf.logits
    z1 = np.matmul(x, params.w_emb, out=buf.z1)
    z1 += params.b_emb
    emb = np.maximum(z1, 0.0, out=buf.emb)
    np.matmul(emb, params.w_pre, out=z)
    z += params.b_pre
    return z1, emb, z


def predict(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Softmax of the logits of each input row."""
    z = forward_cache(params, x)[2]
    return softmax(z, out=z)


def backprop_cached(params: ModelParams, x: np.ndarray, z1, emb: np.ndarray,
                    dlogits: np.ndarray, demb: np.ndarray | None,
                    buf: StepBuffers) -> dict:
    """Parameter gradients from gradients at the logits (and, unless demb
    is None, at the embedding), given the forward_cache of the same rows x.

    The gradients are written into buf; the inputs are left untouched.
    """
    x = np.atleast_2d(x)
    grads = buf.grads
    np.matmul(emb.T, dlogits, out=grads["w_pre"])
    np.sum(dlogits, axis=0, out=grads["b_pre"])
    dz1 = np.matmul(dlogits, params.w_pre.T, out=buf.demb)
    if demb is not None:
        dz1 += demb
    dz1 *= np.greater(z1, 0.0, out=buf.active)
    np.matmul(x.T, dz1, out=grads["w_emb"])
    np.sum(dz1, axis=0, out=grads["b_emb"])
    return grads


def cross_entropy(params: ModelParams, x: np.ndarray, y: np.ndarray, buf: StepBuffers):
    """Mean cross-entropy over the given rows, with parameter gradients.

    Returns (loss, grads).  y holds one class id per row of x.  The
    backward pass reuses the forward pass's hidden layer, and the softmax
    and its gradient overwrite the logits in buf.
    """
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=np.int64)
    z1, emb, z = forward_cache(params, x, buf)
    p = softmax(z, out=z, row=buf.row)
    b = x.shape[0]
    rows = np.arange(b)
    loss = -np.mean(np.log(np.maximum(p[rows, y], 1e-300)))
    p[rows, y] -= 1.0           # p becomes the gradient at the logits
    p /= b
    return loss, backprop_cached(params, x, z1, emb, p, None, buf)


class Adam:
    """Plain Adam with the ADAM_* constants; weight decay is added to the
    raw gradient.

    The moments m and v are flat vectors over every parameter in
    declaration order.  A step gathers the gradients into one flat
    vector and updates all tensors with the same few in-place
    operations, in the same order a per-tensor update would use, so the
    result is bit-identical to it.
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

    def step(self, params: ModelParams, grads: dict) -> None:
        self.t += 1
        items = params.items()
        g, tmp, m, v = self._g, self._tmp, self.m, self.v
        np.concatenate([grads[name].ravel() for name, _ in items], out=g)
        if self.weight_decay:
            np.concatenate([arr.ravel() for _, arr in items], out=tmp)
            tmp *= self.weight_decay
            g += tmp
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=tmp)
        tmp *= g
        v += tmp
        update = np.divide(m, 1 - ADAM_BETA1 ** self.t, out=tmp)
        update *= self.lr
        denom = np.divide(v, 1 - ADAM_BETA2 ** self.t, out=g)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        offset = 0
        for _, arr in items:
            arr -= update[offset:offset + arr.size].reshape(arr.shape)
            offset += arr.size


def optimise(params: ModelParams, objective, *, lr: float, weight_decay: float,
             epochs: int, what: str):
    """Full-batch Adam on objective(params) -> (value, grads, {term: float}).

    Returns (new params, one {"epoch", "total", **terms} entry per epoch).
    An overflow is checked instead of warned about: a value that is not
    finite raises DataError before its epoch's step.
    """
    if lr < 0 or weight_decay < 0 or epochs < 0:
        raise ConfigError("lr, weight_decay and epochs must be nonnegative")
    params = params.copy()
    opt = Adam(params, lr, weight_decay)
    entries = []
    for epoch in range(epochs):
        with np.errstate(all="ignore"):
            value, grads, terms = objective(params)
        if not np.isfinite(value):
            shown = ", ".join(f"{k} {v!r}" for k, v in terms.items())
            raise DataError(f"{what} objective is not finite at epoch {epoch}: {shown}")
        opt.step(params, grads)
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

    def objective(p):
        loss, grads = cross_entropy(p, x, y, buf)
        return loss, grads, {"cross_entropy": float(loss)}

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
    shapes = [("w_emb", (f, h)), ("b_emb", (h,)), ("w_pre", (h, c)), ("b_pre", (c,))]
    # exact ints: np.prod wraps in int64, so a huge header could pass this check
    expect = header_end + 8 * sum(math.prod(s) for _, s in shapes)
    if len(raw) != expect:
        raise CheckpointError(f"{path}: expected {expect} bytes, got {len(raw)}")
    arrays = {}
    offset = header_end
    for name, shape in shapes:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(raw, dtype="<f8", offset=offset,
                                     count=count).reshape(shape).astype(np.float64)
        offset += 8 * count
    return ModelParams(**arrays)
