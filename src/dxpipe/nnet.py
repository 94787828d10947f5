"""Minimal float32 tensor network: conv/pool/dense layers with exact
reverse-mode gradients, the dual-branch fusion classifier, weighted
cross-entropy, and SGD with momentum.

The fusion model runs two convolutional branches with different leading
receptive fields (3x3 vs 5x5) over the same input, concatenates their
feature vectors, and classifies through a shared two-layer head:

    branch A: conv3x3(8) relu pool2 conv3x3(16) relu pool2 flatten dense(a)
    branch B: conv5x5(8) relu pool2 conv3x3(24) relu pool2 flatten dense(b)
    head:     concat(a+b) dense(fusion) relu dropout dense(num_classes)

Parameters are float32; every layer function works on whatever float dtype
it is handed, so gradient checks can run the whole model in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


# the most parameters a model may have: about 9x the --full-scale preset's
# 7,263,918 at 32 px, which it admits up to 128 px input (53,712,558).  A
# training holds at least four float32 copies (weights, gradients, momentum
# and the best epoch's weights), 1 GB at the bound, so ModelConfig refuses a
# larger model before any of them is allocated.
MAX_PARAMS = 2**26


@dataclass
class ModelConfig:
    input_size: int = 32
    branch_a_dim: int = 66
    branch_b_dim: int = 96
    fusion_dim: int = 128
    num_classes: int = 6
    dropout_rate: float = 0.5

    def __post_init__(self) -> None:
        for name in ("input_size", "branch_a_dim", "branch_b_dim", "fusion_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        if self.input_size < 16:
            raise ValueError(f"input_size must be >= 16, got {self.input_size}")
        n = sum(math.prod(shape) for shape in param_shapes(self).values())
        if n > MAX_PARAMS:
            raise ValueError(f"the model has {n} parameters, more than {MAX_PARAMS}")


# Eval passes run EVAL_CHUNK rows at a time, which bounds the columns and
# maps alive at once (branch b's conv1 columns, about 1.3 MB at 16 rows of
# 32 px); each row's logits are its own (see eval_logits).
EVAL_CHUNK = 16


def to_input(images: np.ndarray) -> np.ndarray:
    """uint8 images (N, S, S) as float32 model input (N, 1, S, S) in [0, 1]."""
    return images.astype(np.float32)[:, None] / 255.0


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# layer primitives (dtype-preserving, explicit caches)

def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Valid 2-D convolution (really cross-correlation), stride 1.

    x: (N, C, H, W); w: (F, C, kh, kw); b: (F,).  Returns (out, cols) with
    out (N, F, OH, OW); cols are kept for the backward pass.
    """
    n, c, h, wd = x.shape
    f, c2, kh, kw = w.shape
    if c != c2:
        raise ValueError(f"channel mismatch: input {c}, kernel {c2}")
    oh, ow = h - kh + 1, wd - kw + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"kernel {kh}x{kw} larger than input {h}x{wd}")
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + oh, j : j + ow]
    cols = cols.reshape(n, c * kh * kw, oh * ow)
    out = np.matmul(w.reshape(f, -1)[None], cols).reshape(n, f, oh, ow)
    out += b[None, :, None, None]
    return out, cols


def conv2d_param_grads(dout: np.ndarray, cols: np.ndarray, w: np.ndarray):
    """(dw, db) of a conv2d_forward call, from its output gradient and cols.

    dw is one (F, OH*OW) x (OH*OW, C*kh*kw) GEMM per sample, then a sum over
    the batch in sample order.  No BLAS call reduces across samples, so the
    bytes do not depend on how BLAS splits its work between threads.
    """
    n, f = dout.shape[:2]
    dw = np.matmul(dout.reshape(n, f, -1), cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = dout.sum(axis=(0, 2, 3))
    return dw, db


def conv2d_backward(dout: np.ndarray, cols: np.ndarray, x_shape, w: np.ndarray):
    """(dx, dw, db) of a conv2d_forward call with input shape x_shape.

    dw and db come from conv2d_param_grads.  dx is col2im on flat rows: dout
    is laid out at the input's H x W, zero beyond OH x OW; one GEMM per
    sample gives the column gradients at every input position, rows in
    tap-major order; and each tap (i, j) is added as one contiguous span,
    starting at i*W + j, of a flat buffer over all N*C planes.  Positions
    beyond OH x OW wrap into the next row or plane, but their dout is zero,
    so they add +-0.0 to accumulators that start at +0.0 and so are never
    -0.0: dx has the bytes of the per-plane slice scatter.  The GEMM's
    contraction over F gives the same bytes at either row order and width
    (pinned by the tests).
    """
    n, c, h, wd = x_shape
    f, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    padded = np.zeros((n, f, h, wd), dtype=dout.dtype)
    padded[:, :, :oh, :ow] = dout
    dw, db = conv2d_param_grads(dout, cols, w)
    w_taps = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
    dcols = np.matmul(w_taps[None], padded.reshape(n, f, h * wd))
    size = n * c * h * wd
    dx = np.zeros(size + (kh - 1) * wd + kw - 1, dtype=dout.dtype)
    for t in range(kh * kw):
        start = (t // kw) * wd + t % kw
        span = dx[start : start + size].reshape(n, c, h * wd)
        span += dcols[:, t * c : (t + 1) * c]
    return dx[:size].reshape(x_shape), dw, db


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


def _pool_taps(shape) -> list[tuple[slice, ...]]:
    """Each 2x2-window position as a strided view index, in window order."""
    h2, w2 = shape[2] // 2, shape[3] // 2
    return [
        (slice(None), slice(None), slice(i, 2 * h2, 2), slice(j, 2 * w2, 2))
        for i in (0, 1)
        for j in (0, 1)
    ]


def maxpool2_forward(x: np.ndarray, index: bool = True):
    """2x2 max pooling, stride 2; odd trailing rows/cols are dropped.

    Each window's output is its first maximum in window order (0,0), (0,1),
    (1,0), (1,1), the element np.argmax over the window picks; the cache
    holds that element's index (0-3) per window, or is None when index is
    false (a pass with no backward to read it).  np.maximum returns its
    second operand when the two compare equal (x86 max semantics, pinned
    by the tests), so every pair passes the earlier tap second: a window
    whose maximum is both -0.0 and +0.0 yields the earlier zero.  x must be
    finite.
    """
    t00, t01, t10, t11 = (x[tap] for tap in _pool_taps(x.shape))
    out = np.maximum(np.maximum(t11, t10), np.maximum(t01, t00))
    if not index:
        return out, None
    # first = (t00 != out) * (1 + (t01 != out) * (1 + (t10 != out)))
    first = (t10 != out).astype(np.uint8)
    first += 1
    first *= t01 != out
    first += 1
    first *= t00 != out
    return out, (first, x.shape)


def maxpool2_backward(dout: np.ndarray, cache) -> np.ndarray:
    """Sends each window's gradient to its first maximum; every other
    element of dx, odd trailing rows/cols included, is +0.0.

    Each tap is written as the gradient's unsigned-integer view times the
    tap's 0/1 mask: a 1 passes dout's exact bits (-0.0 and subnormals
    included), a 0 writes +0.0."""
    first, x_shape = cache
    dx = np.zeros(x_shape, dtype=dout.dtype)
    uint = np.dtype(f"u{dout.itemsize}")
    bits, dx_bits = dout.view(uint), dx.view(uint)
    for k, tap in enumerate(_pool_taps(x_shape)):
        np.multiply(bits, first == k, out=dx_bits[tap])
    return dx


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, per_row: bool = False) -> np.ndarray:
    """x @ w.T + b.  per_row runs one GEMM per row: a GEMM's last bits depend
    on its row count, so then each row's output is that of the row alone."""
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"dense shape mismatch: input {x.shape[1]}, weight {w.shape[1]}")
    if per_row:
        return np.matmul(x[:, None], w.T)[:, 0] + b
    return x @ w.T + b


def dense_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray):
    return dout @ w, dout.T @ x, dout.sum(axis=0)


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout: kept units are rescaled by 1/(1-rate)."""
    mask = (rng.random(x.shape) >= rate).astype(x.dtype)
    return x * mask / (1.0 - rate), mask


def dropout_backward(dout: np.ndarray, mask: np.ndarray, rate: float) -> np.ndarray:
    return dout * mask / (1.0 - rate)


# Finite logits more than the float range apart overflow their difference
# to -inf, whose exp is the 0 it would have underflowed to anyway.
@np.errstate(over="ignore")
def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def weighted_ce(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    """Class-weighted cross-entropy over a batch of logits.

    Per sample: weight[label] * (-x[label] + log sum_j exp(x[j])), with
    max-subtraction stabilization; the batch loss is the mean.  Returns
    (loss, dlogits) where dlogits[i, j] =
    weight[label_i] * (softmax(x_i)[j] - [j == label_i]) / N.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    if weights.shape != (c,):
        raise ValueError(f"expected {c} class weights, got shape {weights.shape}")
    if (weights < 0).any() or not (weights > 0).any():
        raise ValueError("class weights must be nonnegative with at least one positive")
    _require_finite("logits", logits)

    x = logits.astype(np.float64)
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    w = weights[labels]
    losses = w * (-x[np.arange(n), labels] + lse)
    loss = float(losses.mean())

    p = np.exp(x - m)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(n), labels] -= 1.0
    dlogits = (p * w[:, None] / n).astype(logits.dtype)
    return loss, dlogits


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float = 0.0,
) -> None:
    """In-place momentum SGD: v = momentum*v - lr*g; p += v."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        v = velocity.setdefault(name, np.zeros_like(p))
        v *= momentum
        v -= (lr * g).astype(p.dtype)
        p += v


# ---------------------------------------------------------------------------
# the dual-branch fusion classifier

_BRANCHES = {
    "a": ((3, 8), (3, 16)),  # (kernel, filters) per conv stage
    "b": ((5, 8), (3, 24)),
}


def _branch_flat_dim(input_size: int, branch: str) -> int:
    (k1, f1), (k2, f2) = _BRANCHES[branch]
    s = (input_size - k1 + 1) // 2
    s = (s - k2 + 1) // 2
    if s < 1:
        raise ValueError(f"input_size {input_size} too small for branch {branch}")
    return f2 * s * s


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every FusionNet parameter, in initialisation order."""
    layers = []
    for branch in ("a", "b"):
        (k1, f1), (k2, f2) = _BRANCHES[branch]
        out = config.branch_a_dim if branch == "a" else config.branch_b_dim
        layers += [
            (f"branch_{branch}.conv1", (f1, 1, k1, k1)),
            (f"branch_{branch}.conv2", (f2, f1, k2, k2)),
            (f"branch_{branch}.fc", (out, _branch_flat_dim(config.input_size, branch))),
        ]
    layers.append(("fusion", (config.fusion_dim, config.branch_a_dim + config.branch_b_dim)))
    layers.append(("head", (config.num_classes, config.fusion_dim)))
    shapes = {}
    for name, w_shape in layers:
        shapes[f"{name}.w"] = w_shape
        shapes[f"{name}.b"] = w_shape[:1]
    return shapes


class _NoCache(dict):
    """A forward cache that keeps nothing, for eval passes."""

    def __setitem__(self, key, value) -> None:
        pass


class FusionNet:
    """Dual-branch feature-fusion classifier over (N, 1, S, S) inputs in [0, 1].

    Each branch applies its ReLUs in place on the conv outputs, which the
    forward cache keeps as c1/c2.  The branch backward takes each ReLU's
    gradient on the pooled map, dp * (pooled > 0), before the max-pool
    scatter.  pooled is the ReLU output at each window's first maximum, so
    this is the multiply the full-resolution relu_backward made there;
    elsewhere both give +0.0.  The gradients have the bytes of the
    full-resolution form.
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        params: dict[str, np.ndarray] | None = None,
    ):
        """Given params are used as they are; otherwise every weight is drawn
        (He-normal, in param_shapes order) from seed mod 2**64 and every bias
        is zero."""
        self.config = config
        if params is None:
            rng = np.random.default_rng(seed & (2**64 - 1))
            params = {}
            for name, shape in param_shapes(config).items():
                if name.endswith(".w"):
                    fan_in = math.prod(shape[1:])
                    params[name] = (
                        rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
                    ).astype(np.float32)
                else:
                    params[name] = np.zeros(shape, dtype=np.float32)
        self.params: dict[str, np.ndarray] = params

    def astype(self, dtype) -> "FusionNet":
        """Copy with parameters cast to dtype (float64 for gradient checks)."""
        return FusionNet(self.config, params={k: v.astype(dtype) for k, v in self.params.items()})

    def _forward_branch(self, branch: str, x: np.ndarray, cache: dict) -> np.ndarray:
        """A branch's conv1 relu pool conv2 relu pool flatten fc: its
        features.  Each layer's output replaces its input in x, and what
        backward needs goes only to c, so a _NoCache frees every column
        matrix and activation once the next layer has used it."""
        p = self.params
        name = f"branch_{branch}"
        c = cache[name] = type(cache)()
        eval_pass = isinstance(c, _NoCache)  # no backward reads its pool indices
        x, c["cols1"] = conv2d_forward(x, p[f"{name}.conv1.w"], p[f"{name}.conv1.b"])
        _require_finite(f"{name}.conv1", x)
        c["c1"] = np.maximum(x, 0, out=x)
        x, c["pool1"] = maxpool2_forward(x, not eval_pass)
        c["p1"] = x
        x, c["cols2"] = conv2d_forward(x, p[f"{name}.conv2.w"], p[f"{name}.conv2.b"])
        _require_finite(f"{name}.conv2", x)
        c["c2"] = np.maximum(x, 0, out=x)
        x, c["pool2"] = maxpool2_forward(x, not eval_pass)
        c["p2"] = x
        c["flat"] = flat = x.reshape(len(x), -1)
        feat = dense_forward(flat, p[f"{name}.fc.w"], p[f"{name}.fc.b"], eval_pass)
        _require_finite(f"{name}.fc", feat)
        return feat

    def forward(
        self,
        x: np.ndarray,
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
    ):
        """Run the model; returns (logits, cache).  In train mode an rng is
        required whenever dropout_rate > 0."""
        cache: dict = {}
        return self._forward(x, cache, train_mode, rng), cache

    def _forward(self, x: np.ndarray, cache: dict, train_mode: bool = False, rng=None):
        """Logits; the layer inputs that backward needs go to cache."""
        if x.ndim != 4 or x.shape[1] != 1:
            raise ValueError(f"expected input (N, 1, H, W), got {x.shape}")
        s = self.config.input_size
        if x.shape[2] != s or x.shape[3] != s:
            raise ValueError(f"expected {s}x{s} input, got {x.shape[2]}x{x.shape[3]}")
        eval_pass = isinstance(cache, _NoCache)
        feat_a = self._forward_branch("a", x, cache)
        feat_b = self._forward_branch("b", x, cache)
        cache["fused_in"] = fused_in = np.concatenate([feat_a, feat_b], axis=1)
        fused = dense_forward(fused_in, self.params["fusion.w"], self.params["fusion.b"], eval_pass)
        cache["fused"] = fused
        _require_finite("fusion", fused)
        hidden = relu_forward(fused)
        if train_mode and self.config.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("train-mode forward with dropout requires an rng")
            dropped, mask = dropout_forward(hidden, self.config.dropout_rate, rng)
        else:
            dropped, mask = hidden, None
        cache["mask"], cache["dropped"] = mask, dropped
        logits = dense_forward(dropped, self.params["head.w"], self.params["head.b"], eval_pass)
        _require_finite("logits", logits)
        return logits

    def _backward_branch(self, branch: str, dfeat: np.ndarray, cache: dict, grads: dict):
        p = self.params
        name = f"branch_{branch}"
        c = cache[name]
        dflat, grads[f"{name}.fc.w"], grads[f"{name}.fc.b"] = dense_backward(
            dfeat, c["flat"], p[f"{name}.fc.w"]
        )
        p1, p2 = c["p1"], c["p2"]
        dc2 = maxpool2_backward(relu_backward(dflat.reshape(p2.shape), p2), c["pool2"])
        dp1, grads[f"{name}.conv2.w"], grads[f"{name}.conv2.b"] = conv2d_backward(
            dc2, c["cols2"], p1.shape, p[f"{name}.conv2.w"]
        )
        dc1 = maxpool2_backward(relu_backward(dp1, p1), c["pool1"])
        grads[f"{name}.conv1.w"], grads[f"{name}.conv1.b"] = conv2d_param_grads(
            dc1, c["cols1"], p[f"{name}.conv1.w"]
        )

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients for every parameter; reuses the forward cache
        (including the dropout mask)."""
        if "dropped" not in cache:
            raise ValueError("stale or missing forward cache")
        grads: dict[str, np.ndarray] = {}
        ddropped, grads["head.w"], grads["head.b"] = dense_backward(
            dlogits, cache["dropped"], self.params["head.w"]
        )
        if cache["mask"] is not None:
            dhidden = dropout_backward(ddropped, cache["mask"], self.config.dropout_rate)
        else:
            dhidden = ddropped
        dfused = relu_backward(dhidden, cache["fused"])
        dfused_in, grads["fusion.w"], grads["fusion.b"] = dense_backward(
            dfused, cache["fused_in"], self.params["fusion.w"]
        )
        a_dim = self.config.branch_a_dim
        self._backward_branch("a", dfused_in[:, :a_dim], cache, grads)
        self._backward_branch("b", dfused_in[:, a_dim:], cache, grads)
        return grads

    # A checkpoint with non-finite or huge weights is refused by
    # _require_finite, naming the layer, as one error; numpy's overflow and
    # invalid-value warnings would only precede it on stderr.
    @np.errstate(over="ignore", invalid="ignore")
    def eval_logits(self, images: np.ndarray) -> np.ndarray:
        """Eval-mode logits for uint8 images (N, S, S), in passes of
        EVAL_CHUNK rows; each pass normalises its own rows with to_input, so
        no float copy of the whole stack is made.  to_input works element by
        element, each conv GEMM is one GEMM per sample, each dense layer one
        per row, and ReLU, pooling and the finiteness checks work element by
        element, so each row's logits have the bytes of forward() on that
        row alone, whatever shares its pass."""
        return np.concatenate([
            self._forward(to_input(images[i : i + EVAL_CHUNK]), _NoCache())
            for i in range(0, len(images), EVAL_CHUNK)
        ])

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Eval-mode softmax scores (N, C) for uint8 images (N, S, S)."""
        return softmax(self.eval_logits(images))


def config_for_orientation(cfg: ModelConfig) -> ModelConfig:
    """Same architecture, four pose classes."""
    return replace(cfg, num_classes=4)
