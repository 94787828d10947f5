import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forward_with_conv_maps
from dxpipe import nnet
from dxpipe.nnet import (
    FusionNet,
    ModelConfig,
    conv2d_backward,
    conv2d_forward,
    conv2d_param_grads,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    maxpool2_backward,
    maxpool2_forward,
    param_shapes,
    relu_backward,
    relu_forward,
    sgd_step,
    softmax,
    to_input,
    weighted_ce,
)

STEP = 1e-3
RTOL = 1e-3


def rel_err(a: float, b: float) -> float:
    if abs(a) < 1e-12 and abs(b) < 1e-12:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def fd_check(forward, param, grad, samples, rng, step=STEP):
    """Central finite differences on sampled coordinates of `param` against
    the analytic `grad`; forward() returns the scalar loss."""
    flat = param.ravel()
    idx = rng.choice(param.size, size=min(samples, param.size), replace=False)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + step
        lp = forward()
        flat[i] = orig - step
        lm = forward()
        flat[i] = orig
        fd = (lp - lm) / (2 * step)
        assert rel_err(grad.ravel()[i], fd) < RTOL, (i, grad.ravel()[i], fd)


def test_conv2d_gradients():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 2, 8, 8))
    w = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal(4)
    r = rng.standard_normal((3, 4, 6, 6))

    def loss():
        out, _ = conv2d_forward(x, w, b)
        return float((out * r).sum())

    out, cols = conv2d_forward(x, w, b)
    dx, dw, db = conv2d_backward(r, cols, x.shape, w)
    fd_check(loss, w, dw, 40, rng)
    fd_check(loss, b, db, 4, rng)
    fd_check(loss, x, dx, 40, rng)


def test_dense_gradients():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7))
    w = rng.standard_normal((4, 7))
    b = rng.standard_normal(4)
    r = rng.standard_normal((5, 4))

    def loss():
        return float((dense_forward(x, w, b) * r).sum())

    dx, dw, db = dense_backward(r, x, w)
    fd_check(loss, w, dw, 28, rng)
    fd_check(loss, b, db, 4, rng)
    fd_check(loss, x, dx, 35, rng)


def test_maxpool_gradients():
    # window gaps held above the FD step so the argmax never flips
    rng = np.random.default_rng(2)
    x = rng.permutation(np.arange(2 * 3 * 8 * 8, dtype=np.float64)).reshape(2, 3, 8, 8)
    x *= 0.05  # gaps of 0.05 >> 2 * step
    r = rng.standard_normal((2, 3, 4, 4))

    def loss():
        out, _ = maxpool2_forward(x)
        return float((out * r).sum())

    out, cache = maxpool2_forward(x)
    dx = maxpool2_backward(r, cache)
    fd_check(loss, x, dx, 60, rng)


def test_maxpool_odd_edges_get_zero_gradient():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 1, 5, 5))
    out, cache = maxpool2_forward(x)
    assert out.shape == (1, 1, 2, 2)
    dx = maxpool2_backward(np.ones_like(out), cache)
    assert (dx[:, :, 4, :] == 0).all() and (dx[:, :, :, 4] == 0).all()


def _maxpool_oracle(x, dout):
    """The reshape/argmax/put_along_axis pooling that maxpool2_forward and
    maxpool2_backward replaced: (out, dx), the reference they must match bit
    for bit."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    windows = (
        x[:, :, : 2 * h2, : 2 * w2]
        .reshape(n, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h2, w2, 4)
    )
    idx = np.argmax(windows, axis=4)
    out = np.take_along_axis(windows, idx[..., None], axis=4)[..., 0]
    dwin = np.zeros((n, c, h2, w2, 4), dtype=dout.dtype)
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=4)
    dx = np.zeros(x.shape, dtype=dout.dtype)
    dx[:, :, : 2 * h2, : 2 * w2] = (
        dwin.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * h2, 2 * w2)
    )
    return out, dx


def _pool_input(kind, shape, dtype, rng):
    n, c, h, w = shape
    if kind == "random":
        return rng.standard_normal(shape).astype(dtype)
    if kind == "equal_windows":  # every 2x2 window holds one value four times
        v = rng.standard_normal((n, c, (h + 1) // 2, (w + 1) // 2)).astype(dtype)
        return np.repeat(np.repeat(v, 2, axis=2), 2, axis=3)[:, :, :h, :w].copy()
    if kind == "relu_ties":  # ReLU'd small integers: many windows tied at 0 or above
        return np.maximum(rng.integers(-3, 3, size=shape), 0).astype(dtype)
    if kind == "signed_zeros":  # 0.0 and -0.0 in one window, tied at the maximum
        return rng.choice(np.array([0.0, -0.0, -1.0], dtype=dtype), size=shape)
    raise ValueError(kind)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["random", "equal_windows", "relu_ties", "signed_zeros"])
@pytest.mark.parametrize("hw", [(30, 30), (15, 15), (13, 13), (5, 5), (2, 2), (30, 13), (5, 2)])
def test_maxpool_matches_argmax_oracle_bytes(dtype, kind, hw):
    rng = np.random.default_rng(sum(hw))
    x = _pool_input(kind, (2, 3, *hw), dtype, rng)
    # negative gradients, and -0.0 ones that must land as -0.0 on the chosen tap
    dout = rng.standard_normal((2, 3, hw[0] // 2, hw[1] // 2)).astype(dtype)
    dout.reshape(-1)[::5] = -0.0
    ref_out, ref_dx = _maxpool_oracle(x, dout)
    out, cache = maxpool2_forward(x)
    dx = maxpool2_backward(dout, cache)
    assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()
    assert maxpool2_forward(x, index=False)[0].tobytes() == ref_out.tobytes()
    assert maxpool2_forward(x, index=False)[1] is None
    assert dx.dtype == ref_dx.dtype and dx.shape == ref_dx.shape
    assert dx.tobytes() == ref_dx.tobytes()
    if kind == "signed_zeros":  # the case is really there: ties of -0.0 and +0.0
        h2, w2 = hw[0] // 2, hw[1] // 2
        taps = [x[:, :, i : 2 * h2 : 2, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]
        neg = np.logical_or.reduce([(t == 0) & np.signbit(t) for t in taps])
        pos = np.logical_or.reduce([(t == 0) & ~np.signbit(t) for t in taps])
        assert (neg & pos).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, w_shape", [
    ((4, 1, 32, 32), (8, 1, 3, 3)),
    ((4, 1, 32, 32), (8, 1, 5, 5)),
    ((4, 8, 15, 15), (16, 8, 3, 3)),
])
def test_conv2d_param_grads_match_conv2d_backward_bytes(dtype, x_shape, w_shape):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    out, cols = conv2d_forward(x, w, np.zeros(w_shape[0], dtype))
    dout = rng.standard_normal(out.shape).astype(dtype)
    _, dw_ref, db_ref = conv2d_backward(dout, cols, x_shape, w)
    dw, db = conv2d_param_grads(dout, cols, w)
    assert dw.dtype == dw_ref.dtype and dw.tobytes() == dw_ref.tobytes()
    assert db.dtype == db_ref.dtype and db.tobytes() == db_ref.tobytes()


def test_relu_gradients_away_from_kink():
    rng = np.random.default_rng(4)
    mag = rng.uniform(2 * STEP + 1e-3, 2.0, size=(6, 10))
    x = mag * rng.choice([-1.0, 1.0], size=(6, 10))
    r = rng.standard_normal((6, 10))

    def loss():
        return float((relu_forward(x) * r).sum())

    dx = relu_backward(r, x)
    fd_check(loss, x, dx, 60, rng)


def test_dropout_gradient_is_scaled_mask():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 9))
    out, mask = dropout_forward(x, 0.5, np.random.default_rng(0))
    np.testing.assert_allclose(out, x * mask / 0.5)
    dout = rng.standard_normal((4, 9))
    np.testing.assert_allclose(dropout_backward(dout, mask, 0.5), dout * mask / 0.5)


def test_dropout_keeps_expected_fraction():
    rng = np.random.default_rng(6)
    _, mask = dropout_forward(np.ones((100, 100)), 0.5, rng)
    assert 0.45 < mask.mean() < 0.55


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    s = softmax(rng.standard_normal((50, 6)) * 10)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_of_logits_beyond_the_float_range_apart_warns_nothing():
    import warnings

    logits = np.array([[3.4e38, -3.4e38, 0.0]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(softmax(logits), [[1.0, 0.0, 0.0]])


def test_weighted_ce_symmetric_logits():
    loss, _ = weighted_ce(np.zeros((1, 2)), np.array([0]), np.ones(2))
    assert abs(loss - math.log(2)) < 1e-9


def test_weighted_ce_weighted_fixture():
    # 3 * (-2 + ln(e^2 + 1))
    logits = np.array([[2.0, 0.0]])
    loss, _ = weighted_ce(logits, np.array([0]), np.array([3.0, 1.0]))
    expected = 3.0 * (-2.0 + math.log(math.exp(2.0) + 1.0))
    assert abs(loss - expected) < 1e-9
    assert abs(loss - 0.380784) < 1e-6


def test_weighted_ce_linear_in_weights():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    w = rng.uniform(0.5, 2.0, size=4)
    l1, g1 = weighted_ce(logits, labels, w)
    l2, g2 = weighted_ce(logits, labels, 2 * w)
    assert abs(l2 - 2 * l1) < 1e-9
    np.testing.assert_allclose(g2, 2 * g1, rtol=1e-6)


def test_weighted_ce_uniform_equals_standard():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((5, 6))
    labels = rng.integers(0, 6, size=5)
    loss, _ = weighted_ce(logits, labels, np.ones(6))
    p = softmax(logits)
    standard = -np.log(p[np.arange(5), labels]).mean()
    assert abs(loss - standard) < 1e-6


def test_weighted_ce_gradient():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((4, 6))
    labels = np.array([0, 2, 5, 1])
    w = np.array([1.0, 2.0, 0.5, 1.0, 3.0, 1.0])
    _, grad = weighted_ce(logits, labels, w)

    def loss():
        return weighted_ce(logits, labels, w)[0]

    fd_check(loss, logits, grad, 24, rng, step=1e-5)


def test_weighted_ce_validation():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError, match="label"):
        weighted_ce(logits, np.array([0, 3]), np.ones(3))
    with pytest.raises(ValueError, match="weights"):
        weighted_ce(logits, np.array([0, 1]), np.zeros(3))
    with pytest.raises(FloatingPointError, match="non-finite"):
        weighted_ce(np.array([[np.nan, 0.0]]), np.array([0]), np.ones(2))


def test_weighted_ce_stable_for_large_logits():
    loss, grad = weighted_ce(np.array([[1000.0, 0.0]]), np.array([0]), np.ones(2))
    assert math.isfinite(loss) and loss < 1e-6
    assert np.isfinite(grad).all()


def test_sgd_plain_step():
    params = {"w": np.array([1.0, 2.0], dtype=np.float32)}
    grads = {"w": np.array([0.5, -1.0], dtype=np.float32)}
    vel = {}
    sgd_step(params, grads, vel, lr=0.1, momentum=0.0)
    np.testing.assert_allclose(params["w"], [0.95, 2.1])


def test_sgd_zero_grad_keeps_params():
    params = {"w": np.array([3.0], dtype=np.float32)}
    sgd_step(params, {"w": np.zeros(1, dtype=np.float32)}, {}, lr=1.0, momentum=0.9)
    assert params["w"][0] == 3.0


def test_sgd_momentum_matches_hand_unrolled():
    p = np.array([1.0], dtype=np.float64)
    g1, g2 = 0.2, -0.1
    lr, mu = 0.1, 0.9
    params = {"w": p.copy()}
    vel = {}
    sgd_step(params, {"w": np.array([g1])}, vel, lr, mu)
    sgd_step(params, {"w": np.array([g2])}, vel, lr, mu)
    v1 = -lr * g1
    p1 = 1.0 + v1
    v2 = mu * v1 - lr * g2
    p2 = p1 + v2
    np.testing.assert_allclose(params["w"], [p2], rtol=1e-12)


def test_sgd_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, {}, 0.1)


def test_forward_output_shape_and_concat_width():
    cfg = ModelConfig()
    model = FusionNet(cfg, seed=0)
    x = np.random.default_rng(0).random((3, 1, 32, 32)).astype(np.float32)
    logits, cache = model.forward(x)
    assert logits.shape == (3, 6)
    assert cache["fused_in"].shape == (3, 66 + 96)


def test_eval_forward_deterministic():
    model = FusionNet(ModelConfig(), seed=1)
    x = np.random.default_rng(1).random((2, 1, 32, 32)).astype(np.float32)
    a, _ = model.forward(x, train_mode=False)
    b, _ = model.forward(x, train_mode=False)
    np.testing.assert_array_equal(a, b)


def test_train_forward_requires_rng():
    model = FusionNet(ModelConfig(), seed=1)
    x = np.zeros((1, 1, 32, 32), dtype=np.float32)
    with pytest.raises(ValueError, match="rng"):
        model.forward(x, train_mode=True)


def test_forward_shape_validation():
    model = FusionNet(ModelConfig(), seed=0)
    with pytest.raises(ValueError, match="expected"):
        model.forward(np.zeros((2, 1, 16, 16), dtype=np.float32))
    with pytest.raises(ValueError, match="expected"):
        model.forward(np.zeros((2, 3, 32, 32), dtype=np.float32))


def test_zero_dlogits_give_zero_gradients():
    model = FusionNet(ModelConfig(), seed=2)
    x = np.random.default_rng(2).random((2, 1, 32, 32)).astype(np.float32)
    logits, cache = model.forward(x, train_mode=True, rng=np.random.default_rng(0))
    grads = model.backward(cache, np.zeros_like(logits))
    assert all((g == 0).all() for g in grads.values())


def test_identical_samples_identical_contributions():
    model = FusionNet(ModelConfig(dropout_rate=0.0), seed=3)
    rng = np.random.default_rng(3)
    x1 = rng.random((1, 1, 32, 32)).astype(np.float32)
    pair = np.concatenate([x1, x1])
    labels = np.array([2, 2])
    logits, cache = model.forward(pair, train_mode=True)
    loss, dl = weighted_ce(logits, labels, np.ones(6))
    np.testing.assert_array_equal(logits[0], logits[1])
    np.testing.assert_array_equal(dl[0], dl[1])
    grads_pair = model.backward(cache, dl)

    logits1, cache1 = model.forward(x1, train_mode=True)
    loss1, dl1 = weighted_ce(logits1, labels[:1], np.ones(6))
    grads_single = model.backward(cache1, dl1)
    assert abs(loss - loss1) < 1e-6
    # batched vs single-row BLAS kernels round differently; float32-level match
    for name in grads_pair:
        np.testing.assert_allclose(grads_pair[name], grads_single[name], rtol=1e-3, atol=1e-6)


def test_argmax_invariant_under_constant_shift():
    model = FusionNet(ModelConfig(), seed=4)
    x = np.random.default_rng(4).random((4, 1, 32, 32)).astype(np.float32)
    logits, _ = model.forward(x)
    shifted = logits + 3.7
    assert (logits.argmax(axis=1) == shifted.argmax(axis=1)).all()
    np.testing.assert_allclose(softmax(logits), softmax(shifted), atol=1e-6)


def test_full_scale_dims():
    from dxpipe.cli import _build_parser, _model_config

    # the --full-scale preset overrides the three dim flags
    args = _build_parser().parse_args(
        ["train", "--manifest", "m.csv", "--full-scale", "--branch-a-dim", "7", "--fusion-dim", "9"]
    )
    cfg = _model_config(args)
    assert (cfg.branch_a_dim, cfg.branch_b_dim, cfg.fusion_dim) == (1056, 1536, 2048)
    assert cfg.branch_a_dim * 16 == cfg.branch_b_dim * 11  # 11:16 branch ratio
    model = FusionNet(cfg, seed=0)
    assert model.params["fusion.w"].shape == (2048, 1056 + 1536)
    assert model.params["head.w"].shape == (6, 2048)


def test_the_parameter_bound_admits_the_full_scale_preset_up_to_128_px():
    for size, n in ((32, 7_263_918), (128, 53_712_558)):
        cfg = ModelConfig(size, 1056, 1536, 2048)
        assert sum(math.prod(s) for s in param_shapes(cfg).values()) == n < nnet.MAX_PARAMS
    with pytest.raises(ValueError, match=rf"parameters, more than {nnet.MAX_PARAMS}$"):
        ModelConfig(256, 1056, 1536, 2048)


def test_a_model_at_the_parameter_bound_is_built_and_one_above_it_refused(monkeypatch):
    n = sum(math.prod(s) for s in param_shapes(ModelConfig()).values())
    monkeypatch.setattr(nnet, "MAX_PARAMS", n)
    assert ModelConfig() == ModelConfig(32, 66, 96, 128)
    monkeypatch.setattr(nnet, "MAX_PARAMS", n - 1)
    with pytest.raises(ValueError, match=f"^the model has {n} parameters, more than {n - 1}$"):
        ModelConfig()


def test_default_dims_keep_branch_ratio():
    cfg = ModelConfig()
    assert cfg.branch_a_dim * 16 == cfg.branch_b_dim * 11


def test_to_input_normalizes_uint8():
    images = np.arange(2 * 32 * 32, dtype=np.int64).reshape(2, 32, 32).astype(np.uint8)
    x = to_input(images)
    assert x.dtype == np.float32 and x.shape == (2, 1, 32, 32)
    np.testing.assert_array_equal(x[:, 0] * np.float32(255.0), images.astype(np.float32))


def _images(seed: int, n: int) -> np.ndarray:
    """n random uint8 images of 32 px."""
    return np.random.default_rng(seed).integers(0, 256, (n, 32, 32), dtype=np.uint8)


def _alone(model: FusionNet, x: np.ndarray) -> np.ndarray:
    """Each image's logits from a training-path forward() of that image alone."""
    return np.concatenate([model.forward(to_input(x[i : i + 1]))[0] for i in range(len(x))])


def test_eval_logits_chunks_match_forward(monkeypatch):
    monkeypatch.setattr(nnet, "EVAL_CHUNK", 2)
    model = FusionNet(ModelConfig(), seed=6)
    x = _images(6, 5)
    chunked = model.eval_logits(x)
    assert chunked.shape == (5, 6)
    assert chunked.tobytes() == _alone(model, x).tobytes()
    np.testing.assert_array_equal(model.predict(x), softmax(model.eval_logits(x)))


def test_eval_pass_frees_each_layer_once_the_next_has_used_it(monkeypatch):
    import tracemalloc

    model = FusionNet(ModelConfig(), seed=7)
    x = _images(7, 128)
    monkeypatch.setattr(nnet, "EVAL_CHUNK", len(x))  # one pass over every row
    peaks = {}
    for name, fn in (("forward", lambda: model.forward(to_input(x))[0]),
                     ("eval", lambda: model.eval_logits(x))):
        tracemalloc.start()
        try:
            fn()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert model.eval_logits(x).tobytes() == _alone(model, x).tobytes()
    # the largest layer: branch b's conv1 columns (25 taps) and its output (8
    # maps); a cached forward holds at least the four column matrices
    largest = len(x) * (25 + 8) * 28 * 28 * 4
    cols = len(x) * (9 * 30 * 30 + 72 * 13 * 13 + 25 * 28 * 28 + 72 * 12 * 12) * 4
    assert peaks["eval"] < 1.25 * largest < cols < peaks["forward"]


@pytest.mark.parametrize("n", [1, 31, 33, 129, 300])
def test_eval_logits_bytes_do_not_depend_on_the_chunk(monkeypatch, n):
    model = FusionNet(ModelConfig(), seed=n)
    x = _images(n, n)
    expected = _alone(model, x).tobytes()
    for chunk in (1, 7, 32, 128):
        monkeypatch.setattr(nnet, "EVAL_CHUNK", chunk)
        assert model.eval_logits(x).tobytes() == expected, chunk


_POOL = _images(21, 80)
_POOL_MODEL = FusionNet(ModelConfig(), seed=21)
_POOL_ALONE = _alone(_POOL_MODEL, _POOL)


@settings(max_examples=15, deadline=None)
@given(rows=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=70, unique=True))
def test_eval_logits_rows_do_not_depend_on_what_shares_their_pass(rows):
    # up to 70 rows: five passes of EVAL_CHUNK, in any subset and order
    assert _POOL_MODEL.eval_logits(_POOL[rows]).tobytes() == _POOL_ALONE[rows].tobytes()


def test_eval_pass_keeps_one_chunk_of_conv_layers_alive():
    import tracemalloc

    model = FusionNet(ModelConfig(), seed=8)
    x = _images(8, 505)
    tracemalloc.start()
    try:
        model.eval_logits(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk's largest layer: branch b's conv1 columns (25 taps) and its
    # output (8 maps); and that chunk's flat features, 16 + 24 maps of 6x6.
    # The peak also covers each chunk's normalised input.
    largest = nnet.EVAL_CHUNK * (25 + 8) * 28 * 28 * 4
    flat = nnet.EVAL_CHUNK * (16 + 24) * 6 * 6 * 4
    assert peak < 1.25 * (largest + flat)


def test_param_shapes_match_initialised_params():
    for cfg in (ModelConfig(), ModelConfig(input_size=16, num_classes=4, fusion_dim=7)):
        model = FusionNet(cfg, seed=0)
        assert list(param_shapes(cfg).items()) == [(k, v.shape) for k, v in model.params.items()]


def test_init_draw_is_pinned():
    # digest of the seed-3 default parameters, in insertion order
    model = FusionNet(ModelConfig(), seed=3)
    h = hashlib.sha256()
    for name, arr in model.params.items():
        h.update(name.encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == "269ff97f7c8c57c94b321b86f83542a6201f49a8985f93cb49a94bc24b33b722"


def _cast(model: FusionNet, dtype) -> FusionNet:
    """A model of model's config with its parameters cast to dtype."""
    return FusionNet(model.config, params={k: v.astype(dtype) for k, v in model.params.items()})


def test_a_model_of_given_parameters_draws_nothing(monkeypatch):
    model = FusionNet(ModelConfig(), seed=1)
    monkeypatch.setattr(np.random, "default_rng", None)  # any draw would fail
    clone = _cast(model, np.float64)
    assert clone.config is model.config
    for name, arr in model.params.items():
        assert clone.params[name].dtype == np.float64
        np.testing.assert_array_equal(clone.params[name], arr)


def _strided(a):
    """A copy of a as a non-contiguous view (every other element of a buffer)."""
    buf = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
    view = buf[..., ::2]
    view[...] = a
    return view


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
@pytest.mark.parametrize("hw", [(30, 30), (13, 13), (28, 28), (12, 12), (7, 5)])
def test_maxpool_backward_passes_gradient_bits(dtype, layout, hw):
    """Negative, -0.0 and subnormal gradients reach the chosen tap bit for bit,
    from contiguous and non-contiguous dout alike."""
    rng = np.random.default_rng(7 + sum(hw))
    x = _pool_input("relu_ties", (2, 3, *hw), dtype, rng)
    shape = (2, 3, hw[0] // 2, hw[1] // 2)
    tiny = np.finfo(dtype).smallest_subnormal
    dout = rng.standard_normal(shape).astype(dtype)
    flat = dout.reshape(-1)
    flat[::3] = -0.0
    flat[1::7] = tiny * rng.integers(1, 100, size=flat[1::7].shape)
    flat[2::7] = -tiny
    assert (np.abs(dout[dout != 0]) < np.finfo(dtype).smallest_normal).any()
    if layout == "strided":
        dout = _strided(dout)
    elif layout == "transposed":
        dout = np.ascontiguousarray(dout.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    assert dout.flags.c_contiguous == (layout == "contiguous")
    _, ref_dx = _maxpool_oracle(x, dout)
    _, cache = maxpool2_forward(x)
    dx = maxpool2_backward(dout, cache)
    assert dx.dtype == ref_dx.dtype and dx.tobytes() == ref_dx.tobytes()


@pytest.mark.parametrize("x_shape, w_shape", [
    ((5, 1, 32, 32), (8, 1, 3, 3)),
    ((5, 8, 14, 14), (24, 8, 3, 3)),
])
def test_conv_weight_gradient_is_a_sample_order_sum_of_per_sample_gradients(x_shape, w_shape):
    """dw of a batch is the per-sample dw summed in sample order, so it does
    not depend on how a BLAS call would split a reduction over the batch."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal(x_shape).astype(np.float32)
    w = rng.standard_normal(w_shape).astype(np.float32)
    out, cols = conv2d_forward(x, w, np.zeros(w_shape[0], np.float32))
    dout = rng.standard_normal(out.shape).astype(np.float32)
    dw, _ = conv2d_param_grads(dout, cols, w)
    per_sample = [conv2d_param_grads(dout[i : i + 1], cols[i : i + 1], w)[0] for i in range(len(x))]
    total = per_sample[0].copy()
    for g in per_sample[1:]:
        total += g
    assert dw.tobytes() == total.tobytes()


def _loop_conv2d_backward(dout, cols, x_shape, w):
    """conv2d_backward as it was before the flat col2im: the column gradients
    in channel-major row order at the output's OH x OW, scattered tap by tap
    into per-plane slices.  The reference the flat col2im must match."""
    n, c, h, wd = x_shape
    f, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    dw, db = conv2d_param_grads(dout, cols, w)
    dcols = np.matmul(w.reshape(f, -1).T[None], dout.reshape(n, f, oh * ow))
    dcols = dcols.reshape(n, c, kh, kw, oh, ow)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
    return dx, dw, db


def _signed_zero_gradient(shape, dtype, rng):
    """Normal draws with every fifth value -0.0 and every seventh +0.0."""
    g = rng.standard_normal(shape).astype(dtype)
    g.reshape(-1)[::5] = -0.0
    g.reshape(-1)[3::7] = 0.0
    return g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, w_shape", [
    ((3, 4, 11, 17), (5, 4, 3, 3)),
    ((2, 2, 9, 6), (3, 2, 5, 3)),
    ((4, 3, 7, 12), (2, 3, 2, 4)),
    ((5, 8, 15, 15), (16, 8, 3, 3)),
])
def test_flat_col2im_matches_the_slice_scatter_bytes(dtype, x_shape, w_shape):
    """Non-square inputs and kernels, signed zeros in dout."""
    rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    out, cols = conv2d_forward(x, w, np.zeros(w_shape[0], dtype))
    dout = _signed_zero_gradient(out.shape, dtype, rng)
    got = conv2d_backward(dout, cols, x_shape, w)
    ref = _loop_conv2d_backward(dout, cols, x_shape, w)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 7, 32, 33, 128])
@pytest.mark.parametrize("x_hw, w_shape", [(15, (16, 8, 3, 3)), (14, (24, 8, 3, 3))])
def test_dcols_gemm_bytes_do_not_depend_on_row_order_or_width(n, x_hw, w_shape):
    """The flat col2im relies on this: the column-gradient GEMM (a contraction
    over filters) gives the same bytes with tap-major rows over the padded
    input grid as with channel-major rows over the compact output grid.  The
    shapes are the two FusionNet conv2 layers at float32."""
    rng = np.random.default_rng(n + x_hw)
    f, c, kh, kw = w_shape
    oh = ow = x_hw - kh + 1
    w = rng.standard_normal(w_shape).astype(np.float32)
    dout = _signed_zero_gradient((n, f, oh, ow), np.float32, rng)
    padded = np.zeros((n, f, x_hw, x_hw), np.float32)
    padded[:, :, :oh, :ow] = dout
    compact = np.matmul(w.reshape(f, -1).T[None], dout.reshape(n, f, oh * ow))
    flat = np.matmul(
        w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)[None], padded.reshape(n, f, -1)
    )
    flat = flat.reshape(n, kh, kw, c, x_hw, x_hw)[..., :oh, :ow].transpose(0, 3, 1, 2, 4, 5)
    assert flat.tobytes() == compact.reshape(n, c, kh, kw, oh, ow).tobytes()


def _parent_backward_branch(maps):
    """The branch backward before the ReLU gradient moved onto the pooled
    maps: max-pool scatter at full resolution, then relu_backward on the conv
    output's mask, then the slice-scatter col2im.  The conv outputs c1/c2
    come from maps (see forward_with_conv_maps), since the cache keeps none."""

    def backward_branch(self, branch, dfeat, cache, grads):
        p = self.params
        name = f"branch_{branch}"
        c, (c1, c2) = cache[name], maps[name]
        dflat, grads[f"{name}.fc.w"], grads[f"{name}.fc.b"] = dense_backward(
            dfeat, c["flat"], p[f"{name}.fc.w"]
        )
        dr2 = maxpool2_backward(dflat.reshape(c["p2"].shape), c["pool2"])
        dc2 = relu_backward(dr2, c2)
        dp1, grads[f"{name}.conv2.w"], grads[f"{name}.conv2.b"] = _loop_conv2d_backward(
            dc2, c["cols2"], c["p1"].shape, p[f"{name}.conv2.w"]
        )
        dr1 = maxpool2_backward(dp1, c["pool1"])
        dc1 = relu_backward(dr1, c1)
        grads[f"{name}.conv1.w"], grads[f"{name}.conv1.b"] = conv2d_param_grads(
            dc1, c["cols1"], p[f"{name}.conv1.w"]
        )

    return backward_branch


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 7, 31, 32, 33])
def test_branch_backward_matches_the_full_resolution_relu_backward_bytes(monkeypatch, n, dtype):
    rng = np.random.default_rng(100 + n)
    model = FusionNet(ModelConfig(), seed=n)
    for key in ("branch_a.conv1.b", "branch_b.conv1.b", "branch_b.conv2.b"):
        model.params[key] -= 0.05  # more all-nonpositive pool windows
    model = _cast(model, dtype)
    x = rng.random((n, 1, 32, 32)).astype(dtype)
    x[:, :, 4:14, 6:20] = 0.0  # flat regions: windows of tied maxima
    x[:, :, 20:, :10] = 1.0
    _, cache, maps = forward_with_conv_maps(model, x)
    for br in ("branch_a", "branch_b"):
        for k, conv in zip("12", maps[br]):
            taps = [conv[tap] for tap in nnet._pool_taps(conv.shape)]
            assert (taps[0] == taps[1]).any()  # ties inside windows
            assert (cache[br][f"p{k}"] == 0).any()  # all-nonpositive windows
    dfeat = {
        "a": _signed_zero_gradient((n, model.config.branch_a_dim), dtype, rng),
        "b": _signed_zero_gradient((n, model.config.branch_b_dim), dtype, rng),
    }
    dfeat["a"][0] = -0.0  # a sample whose whole gradient is signed zeros
    parent_backward_branch = _parent_backward_branch(maps)
    got, ref = {}, {}
    for branch, d in dfeat.items():
        model._backward_branch(branch, d, cache, got)
        parent_backward_branch(model, branch, d, cache, ref)
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key].dtype == ref[key].dtype and got[key].tobytes() == ref[key].tobytes(), key

    # and through the whole model, from logit gradients with signed zeros
    dlogits = _signed_zero_gradient((n, model.config.num_classes), dtype, rng)
    grads = model.backward(cache, dlogits)
    monkeypatch.setattr(FusionNet, "_backward_branch", parent_backward_branch)
    parent = model.backward(cache, dlogits)
    for key in parent:
        assert grads[key].tobytes() == parent[key].tobytes(), key


def _always_indexed(monkeypatch):
    """Make every max-pool compute its first-max index, as eval passes did
    before they skipped it; returns the index flags the model passed."""
    flags = []

    def pool(x, index=True):
        flags.append(index)
        return maxpool2_forward(x)

    monkeypatch.setattr(nnet, "maxpool2_forward", pool)
    return flags


def test_eval_pass_skips_the_pool_index_and_keeps_its_logits(monkeypatch):
    monkeypatch.setattr(nnet, "EVAL_CHUNK", 4)
    model = FusionNet(ModelConfig(), seed=11)
    x = _images(11, 9)
    logits = model.eval_logits(x)
    flags = _always_indexed(monkeypatch)
    assert model.eval_logits(x).tobytes() == logits.tobytes()
    assert flags == [False] * 12  # 3 chunks x 2 branches x 2 pools
    flags.clear()
    model.forward(to_input(x[:2]), train_mode=True, rng=np.random.default_rng(0))
    model.forward(to_input(x[:2]))
    assert flags == [True] * 8


def test_training_caches_keep_the_pool_index_for_the_gate_signature():
    model = FusionNet(ModelConfig(), seed=12)
    x = np.random.default_rng(12).random((3, 1, 32, 32)).astype(np.float32)
    for train_mode in (True, False):
        _, cache, maps = forward_with_conv_maps(
            model, x, train_mode=train_mode, rng=np.random.default_rng(1)
        )
        for br in ("branch_a", "branch_b"):
            c = cache[br]
            for pool, conv in zip(("pool1", "pool2"), maps[br]):
                first, x_shape = c[pool]
                assert x_shape == conv.shape
                assert first.tobytes() == maxpool2_forward(conv)[1][0].tobytes()


class _Reads(dict):
    """A dict that records which keys were read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_a_training_cache_holds_exactly_what_the_branch_backward_reads():
    model = FusionNet(ModelConfig(), seed=13)
    x = np.random.default_rng(13).random((3, 1, 32, 32)).astype(np.float32)
    logits, cache = model.forward(x, train_mode=True, rng=np.random.default_rng(1))
    for br in ("branch_a", "branch_b"):
        cache[br] = _Reads(cache[br])
    model.backward(cache, np.ones_like(logits))
    for br in ("branch_a", "branch_b"):
        assert cache[br].read == cache[br].keys() == {
            "cols1", "cols2", "p1", "p2", "flat", "pool1", "pool2"
        }
