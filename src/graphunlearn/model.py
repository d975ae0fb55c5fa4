"""Learnable head over precomputed propagated features.

Two modes share one parameter container:
    linear  logits = X @ w_pre + b_pre; the embedding IS the logit vector.
    mlp     hidden = relu(X @ w_emb + b_emb); logits = hidden @ w_pre + b_pre;
            the embedding is the hidden layer.

All arithmetic is float64 and all gradients are written out by hand, so
training is bit-reproducible for a fixed seed.  Checkpoints are binary:
magic "GUWT", one mode byte (0 linear, 1 mlp), the dims as 64-bit
little-endian ints, then the tensors row-major as little-endian float64
in declaration order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError, DataError, ShapeError
from .fileio import read_bytes, write_bytes

CHECKPOINT_MAGIC = b"GUWT"
_MODE_BYTE = {"linear": 0, "mlp": 1}
_BYTE_MODE = {v: k for k, v in _MODE_BYTE.items()}


@dataclass
class ModelParams:
    """Parameter container; w_emb/b_emb are None in linear mode."""

    mode: str
    w_pre: np.ndarray
    b_pre: np.ndarray
    w_emb: np.ndarray | None = None
    b_emb: np.ndarray | None = None

    def items(self):
        """(name, array) pairs in declaration order for the active mode."""
        if self.mode == "mlp":
            return [("w_emb", self.w_emb), ("b_emb", self.b_emb),
                    ("w_pre", self.w_pre), ("b_pre", self.b_pre)]
        return [("w_pre", self.w_pre), ("b_pre", self.b_pre)]

    def get(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def copy(self) -> "ModelParams":
        return ModelParams(mode=self.mode,
                           w_pre=self.w_pre.copy(), b_pre=self.b_pre.copy(),
                           w_emb=None if self.w_emb is None else self.w_emb.copy(),
                           b_emb=None if self.b_emb is None else self.b_emb.copy())

    @property
    def num_classes(self) -> int:
        return int(self.b_pre.shape[0])

    @property
    def num_inputs(self) -> int:
        return int(self.w_emb.shape[0] if self.mode == "mlp" else self.w_pre.shape[0])


def zeros_like_params(params: ModelParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def init_model(num_features: int, hidden: int, num_classes: int,
               mode: str = "mlp", seed: int = 0) -> ModelParams:
    """Uniform init scaled by 1/sqrt(fan_in), deterministic in the seed."""
    if mode not in _MODE_BYTE:
        raise ConfigError(f"unknown model mode {mode!r}")
    if num_features < 1 or num_classes < 1:
        raise ConfigError("feature and class counts must be at least 1")
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    if mode == "linear":
        return ModelParams(mode="linear",
                           w_pre=uniform(num_features, (num_features, num_classes)),
                           b_pre=uniform(num_features, (num_classes,)))
    if hidden < 1:
        raise ConfigError("hidden width must be at least 1 in mlp mode")
    return ModelParams(mode="mlp",
                       w_emb=uniform(num_features, (num_features, hidden)),
                       b_emb=uniform(num_features, (hidden,)),
                       w_pre=uniform(hidden, (hidden, num_classes)),
                       b_pre=uniform(hidden, (num_classes,)))


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_cache(params: ModelParams, x: np.ndarray):
    """One forward pass keeping what the backward pass needs.

    Returns (z1, emb, logits): z1 is the hidden pre-activation (None in
    linear mode), emb the embedding and logits the pre-softmax scores.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.num_inputs:
        raise ShapeError(f"input has {x.shape[1]} columns, model expects {params.num_inputs}")
    if params.mode == "linear":
        z = x @ params.w_pre + params.b_pre
        return None, z, z
    z1 = x @ params.w_emb + params.b_emb
    emb = np.maximum(z1, 0.0)
    return z1, emb, emb @ params.w_pre + params.b_pre


def forward_embed(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Embedding of each input row (logits in linear mode, hidden in mlp)."""
    return forward_cache(params, x)[1]


def logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Pre-softmax scores straight from input features."""
    return forward_cache(params, x)[2]


def predict(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return softmax(logits(params, x))


def backprop_cached(params: ModelParams, x: np.ndarray, z1, emb: np.ndarray,
                    dlogits: np.ndarray, demb: np.ndarray | None = None) -> dict:
    """Parameter gradients from gradients at the logits (and optionally at
    the embedding), given the forward_cache of the same rows x."""
    x = np.atleast_2d(x)
    grads = zeros_like_params(params)
    if params.mode == "linear":
        total = dlogits if demb is None else dlogits + demb
        grads["w_pre"] = x.T @ total
        grads["b_pre"] = total.sum(axis=0)
        return grads
    grads["w_pre"] = emb.T @ dlogits
    grads["b_pre"] = dlogits.sum(axis=0)
    dh = dlogits @ params.w_pre.T
    if demb is not None:
        dh = dh + demb
    dz1 = dh * (z1 > 0.0)
    grads["w_emb"] = x.T @ dz1
    grads["b_emb"] = dz1.sum(axis=0)
    return grads


def cross_entropy(params: ModelParams, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the given rows, with parameter gradients.

    Returns (loss, grads).  y holds one class id per row of x.  The
    backward pass reuses the forward pass's hidden layer.
    """
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=np.int64)
    z1, emb, z = forward_cache(params, x)
    p = softmax(z)
    b = x.shape[0]
    loss = -np.mean(np.log(np.maximum(p[np.arange(b), y], 1e-300)))
    dz = p.copy()
    dz[np.arange(b), y] -= 1.0
    dz /= b
    return loss, backprop_cached(params, x, z1, emb, dz)


@dataclass
class TrainConfig:
    """Full-batch training knobs."""

    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200

    def __post_init__(self):
        if self.lr < 0 or self.weight_decay < 0 or self.epochs < 0:
            raise ConfigError("lr, weight_decay and epochs must be nonnegative")


class Adam:
    """Plain Adam; weight decay is added to the raw gradient."""

    def __init__(self, params: ModelParams, lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = zeros_like_params(params)
        self.v = zeros_like_params(params)

    def step(self, params: ModelParams, grads: dict) -> None:
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


def train(params: ModelParams, x_tilde: np.ndarray, labels: np.ndarray,
          train_mask: np.ndarray, cfg: TrainConfig):
    """Full-batch cross-entropy training on the masked rows.

    Returns (trained params, per-epoch loss list).  The input params are
    left untouched.
    """
    train_ids = np.flatnonzero(np.asarray(train_mask))
    if train_ids.size == 0:
        raise ConfigError("training mask selects no nodes")
    y = np.asarray(labels, dtype=np.int64)[train_ids]
    if np.any(y < 0):
        raise DataError("every training node must carry a label")
    x = np.asarray(x_tilde, dtype=np.float64)[train_ids]

    params = params.copy()
    opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    history = []
    for _ in range(cfg.epochs):
        loss, grads = cross_entropy(params, x, y)
        opt.step(params, grads)
        history.append(float(loss))
    return params, history


def grad_check(params: ModelParams, loss_fn, seed: int = 0,
               num_probes: int = 20, step: float = 1e-6) -> float:
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
        arr = params.get(name)
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


def save_checkpoint(params: ModelParams, path) -> None:
    """Serialize params: GUWT magic, mode byte, dims, tensors in order."""
    if params.mode == "mlp":
        dims = (params.w_emb.shape[0], params.w_emb.shape[1], params.num_classes)
    else:
        dims = (params.w_pre.shape[0], params.num_classes)
    blob = [CHECKPOINT_MAGIC, bytes([_MODE_BYTE[params.mode]]),
            struct.pack(f"<{len(dims)}Q", *dims)]
    blob += [np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in params.items()]
    write_bytes(path, b"".join(blob))


def load_checkpoint(path) -> ModelParams:
    raw = read_bytes(path)
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    if len(raw) < 5 or raw[4] not in _BYTE_MODE:
        raise CheckpointError(f"{path}: unknown mode byte")
    mode = _BYTE_MODE[raw[4]]
    ndims = 3 if mode == "mlp" else 2
    header_end = 5 + 8 * ndims
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    dims = struct.unpack(f"<{ndims}Q", raw[5:header_end])
    if mode == "mlp":
        f, h, c = dims
        shapes = [("w_emb", (f, h)), ("b_emb", (h,)), ("w_pre", (h, c)), ("b_pre", (c,))]
    else:
        f, c = dims
        shapes = [("w_pre", (f, c)), ("b_pre", (c,))]
    expect = header_end + 8 * sum(int(np.prod(s)) for _, s in shapes)
    if len(raw) != expect:
        raise CheckpointError(f"{path}: expected {expect} bytes, got {len(raw)}")
    arrays = {}
    offset = header_end
    for name, shape in shapes:
        count = int(np.prod(shape))
        arrays[name] = np.frombuffer(raw, dtype="<f8", offset=offset,
                                     count=count).reshape(shape).astype(np.float64)
        offset += 8 * count
    return ModelParams(mode=mode, **arrays)
