import itertools
import struct

import numpy as np
import pytest

from graphunlearn.errors import CheckpointError, ConfigError, DataError, ShapeError
from graphunlearn import model
from graphunlearn.model import (Adam, ModelParams, StepBuffers,
                                backprop_cached, cross_entropy, forward_cache,
                                init_model, load_checkpoint,
                                predict, save_checkpoint, softmax, train)

from graphunlearn.unlearn import FinetuneBuffers, _contrastive_fused, _kl, fused_loss

from conftest import TextbookAdam, grad_check, identity_head
from test_unlearn import partition_fixture


def embed(params, x):
    return forward_cache(params, x)[0]


def logits(params, x):
    return forward_cache(params, x)[1]


def small_model(seed=0):
    return init_model(num_features=4, hidden=8, num_classes=3, seed=seed)


# ------------------------------------------------------------------------ init

def test_init_shapes_mlp():
    p = small_model()
    assert p.w_emb.shape == (4, 8)
    assert p.b_emb.shape == (8,)
    assert p.w_pre.shape == (8, 3)
    assert p.b_pre.shape == (3,)
    assert p.num_classes == 3 and p.num_inputs == 4


def test_init_deterministic_in_seed():
    a, b = small_model(seed=7), small_model(seed=7)
    assert np.array_equal(a.w_emb, b.w_emb)
    c = small_model(seed=8)
    assert not np.array_equal(a.w_emb, c.w_emb)


def test_init_bound_respects_fan_in():
    p = init_model(100, 8, 3, seed=0)
    assert np.abs(p.w_emb).max() <= 0.1


def test_init_validation():
    with pytest.raises(ConfigError):
        init_model(0, 8, 3, seed=0)
    with pytest.raises(ConfigError):
        init_model(4, 8, 0, seed=0)
    with pytest.raises(ConfigError):
        init_model(4, 0, 3, seed=0)


# --------------------------------------------------------------------- softmax

def test_softmax_uniform():
    assert np.allclose(softmax(np.zeros((2, 4))), 0.25)


def test_softmax_large_values_stable():
    p = softmax(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-12
    assert p[0, 0] > 0.999


def test_softmax_shift_invariance():
    z = np.array([[0.3, -1.2, 2.0]])
    assert np.allclose(softmax(z), softmax(z + 100.0), atol=1e-12)


# --------------------------------------------------------------------- forward

def test_forward_embed_is_relu_affine():
    p = small_model()
    x = np.random.default_rng(2).standard_normal((5, 4))
    expect = np.maximum(x @ p.w_emb + p.b_emb, 0.0)
    assert np.allclose(embed(p, x), expect)


def test_forward_predict_rows_sum_to_one():
    p = small_model()
    x = np.random.default_rng(4).standard_normal((6, 4))
    soft = predict(p, x)
    assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-12)
    assert (soft >= 0).all()
    assert np.allclose(soft, softmax(logits(p, x)), atol=1e-15)


def test_forward_rejects_wrong_width():
    p = small_model()
    with pytest.raises(ShapeError):
        embed(p, np.zeros((2, 5)))


def test_mlp_hand_computed_forward():
    p = ModelParams(w_emb=np.array([[1.0], [-1.0]]),
                    b_emb=np.array([0.5]),
                    w_pre=np.array([[2.0, -2.0]]),
                    b_pre=np.array([0.0, 1.0]))
    x = np.array([[1.0, 2.0]])          # pre-activation 1 - 2 + 0.5 = -0.5 -> relu 0
    assert np.allclose(embed(p, x), [[0.0]])
    assert np.allclose(logits(p, x), [[0.0, 1.0]])
    x2 = np.array([[2.0, 0.0]])         # pre-activation 2.5
    assert np.allclose(logits(p, x2), [[5.0, -4.0]])


# -------------------------------------------------------------------- training

def test_train_zero_epochs_returns_copy():
    p = small_model()
    x = np.random.default_rng(5).standard_normal((6, 4))
    y = np.array([0, 1, 2, 0, 1, 2])
    mask = np.ones(6, dtype=bool)
    out, hist = train(p, x, y, mask, lr=0.01, weight_decay=5e-4, epochs=0)
    assert hist == []
    assert np.array_equal(out.w_pre, p.w_pre)
    assert out is not p


def test_train_does_not_mutate_input_params():
    x = np.random.default_rng(6).standard_normal((6, 4))
    y = np.array([0, 1, 2, 0, 1, 2])
    p = small_model()
    snap = p.flat_copy()[0]
    train(p, x, y, np.ones(6, dtype=bool), lr=0.01, weight_decay=5e-4, epochs=5)
    for (name, arr), (_, before) in zip(p.items(), snap.items()):
        assert np.array_equal(arr, before), name


def test_trained_params_share_no_memory_with_step_buffers(monkeypatch):
    made = []

    class Recorded(StepBuffers):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(model, "StepBuffers", Recorded)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((9, 4))
    y = rng.integers(0, 3, size=9)
    out, _ = train(small_model(), x, y, np.ones(9, dtype=bool),
                   lr=0.01, weight_decay=5e-4, epochs=3)
    assert len(made) == 1           # one set of buffers per run
    buffers = [v for v in vars(made[0]).values() if isinstance(v, np.ndarray)]
    buffers += list(made[0].grads.values())
    for name, arr in out.items():
        assert not any(np.shares_memory(arr, b) for b in buffers), name


def test_train_fits_separable_data():
    rng = np.random.default_rng(7)
    y = rng.integers(0, 3, size=60)
    x = rng.standard_normal((60, 4)) * 0.1
    x[np.arange(60), y] += 3.0          # class mean on its own axis
    p = init_model(4, 8, 3, seed=0)
    out, hist = train(p, x, y, np.ones(60, dtype=bool),
                      lr=0.01, weight_decay=5e-4, epochs=100)
    pred = np.argmax(predict(out, x), axis=1)
    assert (pred == y).mean() >= 0.95
    assert hist[-1] < hist[0]


def test_train_bit_identical_reruns():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((10, 4))
    y = rng.integers(0, 3, size=10)
    mask = np.ones(10, dtype=bool)
    p = small_model()
    a, ha = train(p, x, y, mask, lr=0.01, weight_decay=5e-4, epochs=20)
    b, hb = train(p, x, y, mask, lr=0.01, weight_decay=5e-4, epochs=20)
    assert ha == hb
    for (_, arr_a), (_, arr_b) in zip(a.items(), b.items()):
        assert arr_a.tobytes() == arr_b.tobytes()


def test_train_matches_fresh_buffer_loop_with_textbook_adam():
    # train reuses one set of buffers across epochs; the same epochs on
    # fresh buffers with a per-tensor Adam give the same bytes and losses
    rng = np.random.default_rng(16)
    x = rng.standard_normal((25, 4))
    y = rng.integers(0, 3, size=25)
    mask = np.ones(25, dtype=bool)
    mask[[3, 11]] = False
    for weight_decay in (0.0, 5e-4):
        out, hist = train(small_model(seed=5), x, y, mask,
                          lr=0.05, weight_decay=weight_decay, epochs=12)
        ref = small_model(seed=5)
        oracle = TextbookAdam(ref, lr=0.05, weight_decay=weight_decay)
        assert len(hist) == 12
        for loss in hist:
            value, grads = cross_entropy(ref, x[mask], y[mask], StepBuffers(ref, 23))
            assert loss == value and type(loss) is float
            oracle.step(ref, grads)
        for (name, arr), (_, expect) in zip(out.items(), ref.items()):
            assert arr.tobytes() == expect.tobytes(), f"wd={weight_decay}/{name}"


def test_train_loss_decreases_with_small_lr():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 4))
    y = rng.integers(0, 3, size=30)
    p = small_model()
    _, hist = train(p, x, y, np.ones(30, dtype=bool),
                    lr=1e-3, weight_decay=0.0, epochs=40)
    diffs = np.diff(hist)
    assert (diffs <= 1e-6).all()


def test_train_validation_errors():
    p = small_model()
    x = np.zeros((4, 4))
    y, mask = np.zeros(4), np.ones(4, dtype=bool)
    with pytest.raises(ConfigError):
        train(p, x, y, np.zeros(4, dtype=bool), lr=0.01, weight_decay=5e-4, epochs=200)
    with pytest.raises(DataError):
        train(p, x, np.array([0, -1, 1, 0]), mask, lr=0.01, weight_decay=5e-4, epochs=200)
    with pytest.raises(ConfigError):
        train(p, x, y, mask, lr=-0.1, weight_decay=5e-4, epochs=200)
    with pytest.raises(ConfigError):
        train(p, x, y, mask, lr=0.01, weight_decay=5e-4, epochs=-1)


def test_weight_decay_shrinks_weights():
    rng = np.random.default_rng(10)
    x = np.abs(rng.standard_normal((30, 4)))
    y = rng.integers(0, 3, size=30)
    p = identity_head(np.random.default_rng(0).uniform(-0.5, 0.5, (4, 3)))
    lean, _ = train(p, x, y, np.ones(30, dtype=bool),
                    lr=0.01, weight_decay=0.0, epochs=200)
    heavy, _ = train(p, x, y, np.ones(30, dtype=bool),
                     lr=0.01, weight_decay=0.1, epochs=200)
    assert np.linalg.norm(heavy.w_pre) < np.linalg.norm(lean.w_pre)


def test_adam_matches_textbook_oracle():
    # the flat in-place step must leave parameters and moments bit-identical
    # to a per-tensor textbook update over many steps
    rng = np.random.default_rng(14)
    x = rng.standard_normal((20, 4))
    y = rng.integers(0, 3, size=20)
    for weight_decay in (0.0, 5e-4):
        flat, theta = small_model(seed=4).flat_copy()
        ref = small_model(seed=4)
        opt = Adam(flat, lr=0.05, weight_decay=weight_decay)
        oracle = TextbookAdam(ref, lr=0.05, weight_decay=weight_decay)
        for _ in range(50):
            buf = StepBuffers(ref, 20)
            _, grads = cross_entropy(ref, x, y, buf)
            oracle.step(ref, grads)
            opt.step(theta, buf.grad_vector)
        label = f"wd={weight_decay}"
        for (name, arr), (_, expect) in zip(flat.items(), ref.items()):
            assert arr.tobytes() == expect.tobytes(), f"{label}/{name}"
        names = [name for name, _ in ref.items()]
        for got, moments in ((opt.m, oracle.m), (opt.v, oracle.v)):
            expect = np.concatenate([moments[n].ravel() for n in names])
            assert got.tobytes() == expect.tobytes(), label


# ------------------------------------------------------------------- gradients

def test_cross_entropy_gradients_pass_fd_check():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, size=12)
    p = init_model(4, 8, 3, seed=1)
    err = grad_check(p, lambda q: cross_entropy(q, x, y, StepBuffers(q, 12)),
                     seed=0, num_probes=30)
    assert err <= 1e-4, f"rel err {err}"


def test_cross_entropy_value_matches_direct_formula():
    p = small_model()
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 4))
    y = np.array([0, 2, 1, 1, 0])
    loss, _ = cross_entropy(p, x, y, StepBuffers(p, 5))
    soft = predict(p, x)
    direct = -np.mean(np.log(soft[np.arange(5), y]))
    assert abs(loss - direct) < 1e-12


def test_cross_entropy_reused_forward_equals_separate_passes():
    # one call reuses its forward pass in the backward; the result must be
    # bit-identical to a fresh forward_cache plus backprop_cached
    rng = np.random.default_rng(13)
    x = rng.standard_normal((40, 4))
    y = rng.integers(0, 3, size=40)
    p = init_model(4, 8, 3, seed=2)
    loss, grads = cross_entropy(p, x, y, StepBuffers(p, 40))
    soft = softmax(logits(p, x))
    rows = np.arange(40)
    expect = -np.mean(np.log(np.maximum(soft[rows, y], 1e-300)))
    dz = soft.copy()
    dz[rows, y] -= 1.0
    dz /= 40
    expect_grads = backprop_cached(p, x, forward_cache(p, x)[0], dz, None,
                                   StepBuffers(p, 40))
    assert np.array_equal(loss, expect)
    assert set(grads) == set(expect_grads)
    for name in grads:
        assert np.array_equal(grads[name], expect_grads[name]), name


def test_cross_entropy_with_reused_buffers_equals_fresh_buffers():
    # buffers left dirty by an earlier call on other rows must not leak
    # into the next result
    rng = np.random.default_rng(15)
    y = rng.integers(0, 3, size=30)
    p = init_model(4, 8, 3, seed=3)
    buf = StepBuffers(p, 30)
    cross_entropy(p, rng.standard_normal((30, 4)) * 5.0, y[::-1], buf)
    x = rng.standard_normal((30, 4))
    loss, grads = cross_entropy(p, x, y, buf)
    expect_loss, expect_grads = cross_entropy(p, x, y, StepBuffers(p, 30))
    assert loss.tobytes() == expect_loss.tobytes()
    assert set(grads) == set(expect_grads)
    for name in grads:
        assert grads[name].tobytes() == expect_grads[name].tobytes(), name


# -------------------------------------------------------------------- bit lock
# A frozen copy of the training epoch as it was before its passes were
# trimmed: np.max/np.sum softmax, a separate pre-activation buffer and
# mask, p[np.arange(b), y], and an Adam that gathers the tensors into one
# vector and scatters the update back.  The epoch must keep its bits.

def _old_softmax(z):
    row = np.max(z, axis=-1, keepdims=True)
    out = np.subtract(z, row)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out


def _old_forward(params, x):
    z1 = np.matmul(x, params.w_emb)
    z1 += params.b_emb
    emb = np.maximum(z1, 0.0)
    z = np.matmul(emb, params.w_pre)
    z += params.b_pre
    return z1, emb, z


def _old_backprop(params, x, z1, emb, dlogits, demb):
    grads = {"w_pre": np.matmul(emb.T, dlogits), "b_pre": np.sum(dlogits, axis=0)}
    dz1 = np.matmul(dlogits, params.w_pre.T)
    if demb is not None:
        dz1 += demb
    dz1 *= z1 > 0.0
    grads["w_emb"] = np.matmul(x.T, dz1)
    grads["b_emb"] = np.sum(dz1, axis=0)
    return grads


def _old_cross_entropy(params, x, y):
    z1, emb, z = _old_forward(params, x)
    p = _old_softmax(z)
    b = x.shape[0]
    rows = np.arange(b)
    loss = -np.mean(np.log(np.maximum(p[rows, y], 1e-300)))
    p[rows, y] -= 1.0
    p /= b
    return loss, _old_backprop(params, x, z1, emb, p, None)


class _OldAdam:
    def __init__(self, params, lr, weight_decay):
        self.lr, self.weight_decay, self.t = lr, weight_decay, 0
        size = sum(arr.size for _, arr in params.items())
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._g, self._tmp = np.empty(size), np.empty(size)

    def step(self, params, grads):
        self.t += 1
        items = params.items()
        g, tmp, m, v = self._g, self._tmp, self.m, self.v
        np.concatenate([grads[name].ravel() for name, _ in items], out=g)
        if self.weight_decay:
            np.concatenate([arr.ravel() for _, arr in items], out=tmp)
            tmp *= self.weight_decay
            g += tmp
        m *= 0.9
        m += np.multiply(g, 1 - 0.9, out=tmp)
        v *= 0.999
        np.multiply(g, 1 - 0.999, out=tmp)
        tmp *= g
        v += tmp
        update = np.divide(m, 1 - 0.9 ** self.t, out=tmp)
        update *= self.lr
        denom = np.divide(v, 1 - 0.999 ** self.t, out=g)
        np.sqrt(denom, out=denom)
        denom += 1e-8
        update /= denom
        offset = 0
        for _, arr in items:
            arr -= update[offset:offset + arr.size].reshape(arr.shape)
            offset += arr.size


def _old_train(params, x, labels, mask, *, lr, weight_decay, epochs):
    ids = np.flatnonzero(mask)
    x, y = x[ids], labels[ids]
    params = ModelParams(*(arr.copy() for _, arr in params.items()))
    opt = _OldAdam(params, lr, weight_decay)
    losses = []
    for _ in range(epochs):
        loss, grads = _old_cross_entropy(params, x, y)
        opt.step(params, grads)
        losses.append(float(loss))
    return params, losses


@pytest.mark.parametrize("classes", [1, 2, 3, 4, 7, 8, 9, 16])
def test_train_is_bit_locked_to_the_old_epoch(classes):
    rng = np.random.default_rng(100 + classes)
    x = rng.standard_normal((70, 6)) * 2.0
    y = rng.integers(0, classes, size=70)
    mask = rng.random(70) < 0.9
    # width-1 bias sums are where einsum and np.sum part ways
    for hidden, weight_decay in itertools.product((1, 11, 64), (0.0, 5e-4)):
        start = init_model(6, hidden, classes, seed=classes)
        out, hist = train(start, x, y, mask, lr=0.05, weight_decay=weight_decay, epochs=15)
        ref, ref_hist = _old_train(start, x, y, mask, lr=0.05,
                                   weight_decay=weight_decay, epochs=15)
        label = f"classes={classes}, hidden={hidden}, wd={weight_decay}"
        assert np.array(hist).tobytes() == np.array(ref_hist).tobytes(), label
        for (name, arr), (_, expect) in zip(out.items(), ref.items()):
            assert arr.tobytes() == expect.tobytes(), f"{label}/{name}"


def test_softmax_is_bit_locked_to_np_max_and_np_sum():
    rng = np.random.default_rng(21)
    specials = [np.inf, -np.inf, np.nan, 0.0, -0.0, 800.0, -800.0]
    for classes in (1, 2, 3, 4, 7, 8, 9, 16):
        z = rng.standard_normal((60, classes)) * 30.0
        for r in range(0, 60, 3):       # every third row holds special values
            cols = rng.integers(0, classes, size=rng.integers(1, classes + 1))
            z[r, cols] = rng.choice(specials, size=cols.size)
        z[1] = -np.inf
        z[2] = np.inf
        with np.errstate(all="ignore"):
            expect = _old_softmax(z)
            got = softmax(z)
            in_place = z.copy()
            softmax(in_place, out=in_place, row=np.empty((60, 1)))
        assert got.tobytes() == expect.tobytes(), classes
        assert in_place.tobytes() == expect.tobytes(), classes


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_fused_loss_is_bit_locked_to_the_old_passes(lam):
    part, params, _, _ = partition_fixture(seed=2)
    value, grads, parts = fused_loss(params, part, lam=lam, tau=0.5, l2_coef=5e-4,
                                     buf=FinetuneBuffers(params, part))
    # the same objective on the old forward and backward passes
    z1, emb, z = _old_forward(params, part.x)
    soft = _old_softmax(z)
    dlogits = np.zeros_like(z)
    nu = part.ue.size
    target, dz = _kl(part.target, soft[:nu])
    dlogits[:nu] = lam * dz
    contrastive, demb = _contrastive_fused(emb, part, 0.5, FinetuneBuffers(params, part))
    demb *= lam
    kl, dz = _kl(part.memory, soft[part.hie_at])
    dlogits[part.hie_at] = (1.0 - lam) * dz
    expect = _old_backprop(params, part.x, z1, emb, dlogits, demb)
    squares = 0.0
    for name, arr in params.items():
        squares += float(np.sum(arr * arr))
        expect[name] += (1.0 - lam) * (2.0 * 5e-4 * arr)
    l2 = 5e-4 * squares
    assert parts == {"target": target, "contrastive": contrastive, "l2": l2, "kl": kl}
    assert value == lam * (target + contrastive) + (1.0 - lam) * (l2 + kl)
    for name, _ in params.items():
        assert grads[name].tobytes() == expect[name].tobytes(), name


# ----------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    p = small_model()
    path = tmp_path / "x.guwt"
    save_checkpoint(p, path)
    raw = path.read_bytes()
    assert raw[4] == 1 and struct.unpack("<3Q", raw[5:29]) == (4, 8, 3)
    q = load_checkpoint(path)
    for (name_p, arr_p), (name_q, arr_q) in zip(p.items(), q.items()):
        assert name_p == name_q
        assert np.array_equal(arr_p, arr_q)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.guwt"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_mode_byte(tmp_path):
    path = tmp_path / "x.guwt"
    save_checkpoint(small_model(), path)
    raw = bytearray(path.read_bytes())
    for byte in (0, 2, 9):
        raw[4] = byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unknown mode byte"):
            load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    p = small_model()
    path = tmp_path / "x.guwt"
    save_checkpoint(p, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(raw[:8])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
