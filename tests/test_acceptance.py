"""Acceptance gates, one test per criterion, each printing a PASS line.

Heavy end-to-end pieces share the session-scoped default dataset fixture;
every tolerance here is fixed, none is tuned at runtime.
"""

import math
import time

import mpmath
import numpy as np

from conftest import pairwise_auc, psnr
from dxpipe import synth
from dxpipe.cli import run as cli_run
from dxpipe.cluster import kmeans
from dxpipe.enhance import (
    ClaheParams,
    clahe,
    clip_histogram,
    enhance_chain,
    laplacian,
    median_filter,
    sharpen,
    tile_bounds,
)
from dxpipe.image import rotate
from dxpipe.metrics import (
    EvalReport,
    compare_report,
    comparison_to_csv,
    multiclass_auc,
    roc_curve,
)
from dxpipe.nnet import FusionNet, ModelConfig, weighted_ce
from dxpipe.orient import correct_orientation, train_orient
from dxpipe.trainer import (
    TrainConfig,
    compare_weighting,
    evaluate_arrays,
    train,
    training_set,
)


def gate(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


# -- criterion 1: gradient correctness ---------------------------------------

def _gate_signature(cache) -> bytes:
    """Activation gating pattern: relu masks and pool argmax selections."""
    parts = []
    for br in ("branch_a", "branch_b"):
        c = cache[br]
        parts.append((c["c1"] > 0).tobytes())
        parts.append(c["pool1"][0].tobytes())
        parts.append((c["c2"] > 0).tobytes())
        parts.append(c["pool2"][0].tobytes())
    parts.append((cache["fused"] > 0).tobytes())
    return b"".join(parts)


def test_criterion_1_gradient_correctness():
    """Analytic gradients vs float64 central differences at step 1e-3.

    Samples whose +-h stencil crosses a relu/pool activation boundary are
    resampled: the difference quotient does not estimate the derivative
    there.  All accepted samples must agree within 1e-3 relative error.
    """
    t0 = time.time()
    step, tol = 1e-3, 1e-3
    rng = np.random.default_rng(2024)

    # layer types: conv and dense are linear in their parameters, relu and
    # maxpool are checked via input gradients away from their kinks,
    # dropout is linear given the mask
    from dxpipe.nnet import (
        conv2d_backward,
        conv2d_forward,
        dense_backward,
        dense_forward,
        dropout_backward,
        dropout_forward,
        maxpool2_backward,
        maxpool2_forward,
        relu_backward,
        relu_forward,
    )

    def sampled_check(loss_fn, param, grad, n):
        checked = 0
        flat = param.ravel()
        for i in rng.choice(param.size, size=min(n, param.size), replace=False):
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn()
            flat[i] = orig - step
            lm = loss_fn()
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            a = grad.ravel()[i]
            rel = 0.0 if (abs(a) < 1e-12 and abs(fd) < 1e-12) else abs(a - fd) / max(abs(a), abs(fd), 1e-12)
            assert rel < tol, (i, a, fd)
            checked += 1
        return checked

    layer_checked = 0
    x = rng.standard_normal((2, 2, 8, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    r = rng.standard_normal((2, 3, 6, 6))
    out, cols = conv2d_forward(x, w, b)
    dx, dw, db = conv2d_backward(r, cols, x.shape, w)
    layer_checked += sampled_check(lambda: float((conv2d_forward(x, w, b)[0] * r).sum()), w, dw, 20)
    layer_checked += sampled_check(lambda: float((conv2d_forward(x, w, b)[0] * r).sum()), x, dx, 20)

    xd = rng.standard_normal((4, 6))
    wd = rng.standard_normal((5, 6))
    bd = rng.standard_normal(5)
    rd = rng.standard_normal((4, 5))
    dxd, dwd, dbd = dense_backward(rd, xd, wd)
    layer_checked += sampled_check(lambda: float((dense_forward(xd, wd, bd) * rd).sum()), wd, dwd, 20)
    layer_checked += sampled_check(lambda: float((dense_forward(xd, wd, bd) * rd).sum()), bd, dbd, 5)

    xp = 0.05 * rng.permutation(np.arange(2 * 2 * 8 * 8, dtype=np.float64)).reshape(2, 2, 8, 8)
    rp = rng.standard_normal((2, 2, 4, 4))
    _, cache_p = maxpool2_forward(xp)
    dxp = maxpool2_backward(rp, cache_p)
    layer_checked += sampled_check(lambda: float((maxpool2_forward(xp)[0] * rp).sum()), xp, dxp, 25)

    xr = rng.uniform(0.1, 2.0, size=(5, 8)) * rng.choice([-1.0, 1.0], size=(5, 8))
    rr = rng.standard_normal((5, 8))
    dxr = relu_backward(rr, xr)
    layer_checked += sampled_check(lambda: float((relu_forward(xr) * rr).sum()), xr, dxr, 20)

    xo = rng.standard_normal((4, 7))
    ro = rng.standard_normal((4, 7))
    out_o, mask = dropout_forward(xo, 0.5, np.random.default_rng(1))
    dxo = dropout_backward(ro, mask, 0.5)
    layer_checked += sampled_check(
        lambda: float((xo * mask / 0.5 * ro).sum()), xo, dxo, 20
    )

    # full fusion model in float64, dropout active with a fixed mask stream
    model = FusionNet(ModelConfig(), seed=3).astype(np.float64)
    xm = np.random.default_rng(7).random((2, 1, 32, 32))
    ym = np.array([1, 4])
    wm = np.array([1.0, 2.0, 0.5, 1.0, 3.0, 1.0])

    def model_loss():
        logits, cache = model.forward(xm, train_mode=True, rng=np.random.default_rng(99))
        loss, dlogits = weighted_ce(logits, ym, wm)
        return loss, cache, dlogits

    loss0, cache0, dlogits0 = model_loss()
    sig0 = _gate_signature(cache0)
    grads = model.backward(cache0, dlogits0)
    names = sorted(model.params)
    valid = 0
    rejected = 0
    while valid < 220:
        name = names[int(rng.integers(len(names)))]
        p = model.params[name]
        i = int(rng.integers(p.size))
        flat = p.ravel()
        orig = flat[i]
        flat[i] = orig + step
        lp, cp, _ = model_loss()
        sp = _gate_signature(cp)
        flat[i] = orig - step
        lm, cm, _ = model_loss()
        sm = _gate_signature(cm)
        flat[i] = orig
        if sp != sig0 or sm != sig0:
            rejected += 1
            continue
        fd = (lp - lm) / (2 * step)
        a = grads[name].ravel()[i]
        rel = 0.0 if (abs(a) < 1e-12 and abs(fd) < 1e-12) else abs(a - fd) / max(abs(a), abs(fd), 1e-12)
        assert rel < tol, (name, i, a, fd)
        valid += 1

    elapsed = time.time() - t0
    gate(
        1,
        "gradients match float64 central differences (step 1e-3, rel < 1e-3)",
        valid >= 200 and elapsed < 60.0,
        f"{layer_checked} layer + {valid} model params, {rejected} kink resamples, {elapsed:.1f}s",
    )


# -- criterion 2: weighted cross-entropy oracle -------------------------------

def test_criterion_2_weighted_ce_oracle():
    mpmath.mp.dps = 50

    def oracle(logits, label, weight):
        xs = [mpmath.mpf(float(v)) for v in logits]
        lse = mpmath.log(mpmath.fsum(mpmath.exp(v) for v in xs))
        return float(weight * (-xs[label] + lse))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 8))
        logits = (rng.standard_normal(c) * rng.uniform(0.5, 4.0)).astype(np.float32)
        label = int(rng.integers(c))
        weight = float(rng.uniform(0.1, 5.0))
        weights = np.ones(c)
        weights[label] = weight
        loss, _ = weighted_ce(logits[None, :], np.array([label]), weights)
        worst = max(worst, abs(loss - oracle(logits, label, weight)))

    fix1, _ = weighted_ce(np.zeros((1, 2)), np.array([0]), np.ones(2))
    fix2, _ = weighted_ce(np.array([[2.0, 0.0]]), np.array([0]), np.array([3.0, 1.0]))
    ok = (
        worst < 1e-6
        and abs(fix1 - math.log(2)) < 1e-6
        and abs(fix2 - 0.380784) < 1e-6
    )
    gate(2, "weighted cross-entropy matches 50-digit oracle within 1e-6", ok,
         f"worst |err| {worst:.2e}")


# -- criterion 3: AUC equivalence ---------------------------------------------

def test_criterion_3_auc_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:
            scores = np.round(rng.random(n), decimals=int(rng.integers(1, 3)))  # ties
        else:
            scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(n))] = 0
        trap = roc_curve(scores, labels).auc
        worst = max(worst, abs(trap - pairwise_auc(scores, labels)))
    fixture = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]).auc
    ok = worst < 1e-9 and abs(fixture - 0.75) < 1e-12
    gate(3, "trapezoidal AUC equals pairwise ranking statistic within 1e-9", ok,
         f"worst |diff| {worst:.2e} over 1000 sets")


# -- criterion 4: enhancement oracles ------------------------------------------

def test_criterion_4_enhancement_oracles():
    # exact fixtures
    spike = np.zeros((3, 3), dtype=np.uint8)
    spike[1, 1] = 100
    lap = laplacian(spike)
    fixtures_ok = (
        lap[1, 1] == -400
        and all(lap[r, c] == 100 for r, c in ((0, 1), (1, 0), (1, 2), (2, 1)))
        and sharpen(spike)[1, 1] == 255
        and sharpen(spike)[0, 1] == 0
        and median_filter(
            np.array([11, 12, 12, 12, 13, 13, 14, 200, 255], dtype=np.uint8).reshape(3, 3),
            1,
        )[1, 1]
        == 13
    )
    salt = np.zeros((6, 6), dtype=np.uint8)
    salt[2, 3] = 255
    fixtures_ok = fixtures_ok and (median_filter(salt, 1) == 0).all()

    # clip invariant on 100 random images, via the same tiling clahe uses
    rng = np.random.default_rng(21)
    clip_ok = True
    for _ in range(100):
        h, w = int(rng.integers(16, 64)), int(rng.integers(16, 64))
        arr = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        tiles_x, tiles_y = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        clip_factor = float(rng.uniform(1.0, 4.0))
        for y0, y1 in tile_bounds(h, tiles_y):
            for x0, x1 in tile_bounds(w, tiles_x):
                tile = arr[y0:y1, x0:x1]
                hist = np.bincount(tile.ravel(), minlength=256).astype(np.int64)
                n = tile.size
                limit = clip_factor * n / 256.0
                clip = n if limit >= n else max(1, int(limit))
                out = clip_histogram(hist, clip)
                excess = int(np.maximum(hist - clip, 0).sum())
                if out.sum() != n or out.max() > clip + excess // 256 + 1:
                    clip_ok = False
        clahe(arr, ClaheParams(tiles_x, tiles_y, clip_factor))

    # denoising: sharpen -> median -> clahe beats the noisy input on PSNR
    p = synth.SynthParams(image_size=64, noise_impulse_prob=0.0)
    cp = ClaheParams(2, 2, 1.0)
    trial_rng = np.random.default_rng(555)
    wins = 0
    for _ in range(100):
        clean = synth.generate_image(int(trial_rng.integers(6)), p, int(trial_rng.integers(100000)))
        noisy = clean.copy()
        mask = trial_rng.random(clean.shape) < 0.05
        impulses = (trial_rng.integers(0, 2, clean.shape) * 255).astype(np.uint8)
        noisy[mask] = impulses[mask]
        restored = enhance_chain(noisy, cp, 1)
        if psnr(restored, clean) > psnr(noisy, clean):
            wins += 1

    gate(4, "enhancement fixtures, CLAHE clip invariant, PSNR gain in >= 95/100",
         fixtures_ok and clip_ok and wins >= 95, f"PSNR wins {wins}/100")


# -- criterion 5: end-to-end desk-scale run ------------------------------------

def test_criterion_5_end_to_end(default_dataset):
    t0 = time.time()
    t = TrainConfig(seed=42)
    cfg = ModelConfig()
    data = training_set(default_dataset, t)
    model, log = train(data, cfg, t)

    vy = np.array([e.class_id for e in data.val.entries], dtype=np.int64)
    _, acc, scores = evaluate_arrays(model, data.val_images, vy, np.ones(6))
    _, macro = multiclass_auc(scores, vy)
    elapsed = time.time() - t0
    gate(5, "default training reaches macro AUC >= 0.90 and accuracy >= 0.85",
         macro >= 0.90 and acc >= 0.85 and elapsed < 600.0,
         f"macro AUC {macro:.4f}, accuracy {acc:.4f}, {elapsed:.0f}s")


# -- criterion 6: imbalance report ----------------------------------------------

def test_criterion_6_weighting_report(default_dataset):
    t = TrainConfig(seed=42, epochs=6)
    data = training_set(default_dataset, t)
    _, weighted = train(data, ModelConfig(), t)
    _, uniform = train(data, ModelConfig(), t, uniform=True)
    d = compare_weighting(data, weighted, uniform)
    minority = d["minority_class"]
    both_present = (
        minority == 5
        and isinstance(d["minority_recall"]["weighted"], float)
        and isinstance(d["minority_recall"]["uniform"], float)
        and 0.0 <= d["minority_recall"]["weighted"] <= 1.0
        and 0.0 <= d["minority_recall"]["uniform"] <= 1.0
        and len(d["per_class"]) == 6
    )
    gate(6, "weighted vs uniform minority-recall comparison emitted",
         both_present,
         f"class-5 recall weighted {d['minority_recall']['weighted']:.3f} "
         f"vs uniform {d['minority_recall']['uniform']:.3f}")


# -- criterion 7: orientation -----------------------------------------------------

def test_criterion_7_orientation(default_dataset):
    t = TrainConfig(seed=42, epochs=8)
    data = training_set(default_dataset, t)
    model, _ = train_orient(data, ModelConfig(), t)

    hits = 0
    total = 0
    for img in data.val_images:
        for turns in range(4):
            posed = rotate(img, turns)
            fixed, detected, confidence = correct_orientation(model, posed[None])[0]
            total += 1
            if detected == turns:
                hits += 1
                assert (fixed == img).all()  # exact pixel identity on matched poses
            assert 0.0 <= confidence <= 1.0
    accuracy = hits / total
    gate(7, "pose classifier >= 95% on held-out; matched poses restore exactly",
         accuracy >= 0.95, f"pose accuracy {accuracy:.4f} on {total} views")


# -- criterion 8: determinism ------------------------------------------------------

def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_8_determinism(tmp_path):
    ok = True
    for name in ("r1", "r2"):
        assert cli_run(["--seed", "9", "--out-dir", str(tmp_path / name / "data"),
                        "synth", "--scale", "0.05"]) == 0
        assert cli_run(["--seed", "9", "--out-dir", str(tmp_path / name / "run"), "train",
                        "--manifest", str(tmp_path / name / "data" / "manifest.csv"),
                        "--epochs", "2"]) == 0
        assert cli_run(["--seed", "9", "--out-dir", str(tmp_path / name / "eval"), "eval",
                        "--checkpoint", str(tmp_path / name / "run" / "checkpoint.bin"),
                        "--manifest", str(tmp_path / name / "run" / "val_manifest.csv")]) == 0
    for sub in ("data", "run", "eval"):
        if _tree(tmp_path / "r1" / sub) != _tree(tmp_path / "r2" / sub):
            ok = False
    gate(8, "synth/train/eval reruns are byte-identical", ok)


# -- criterion 9: k-means ------------------------------------------------------------

def test_criterion_9_kmeans():
    rng = np.random.default_rng(31)
    monotone = True
    for _ in range(100):
        n = int(rng.integers(6, 80))
        bits = rng.integers(0, 2, size=(n, 64)).astype(np.float64)
        k = int(rng.integers(1, min(8, n) + 1))
        res = kmeans(bits, k, seed=int(rng.integers(10_000)))
        hist = res.inertia_history
        if any(hist[i + 1] > hist[i] + 1e-9 for i in range(len(hist) - 1)):
            monotone = False

    a = rng.normal(0.0, 0.01, size=(15, 8))
    b = rng.normal(9.0, 0.01, size=(10, 8))
    res = kmeans(np.vstack([a, b]), k=2, seed=5)
    la, lb = set(res.assignments[:15].tolist()), set(res.assignments[15:].tolist())
    separated = len(la) == 1 and len(lb) == 1 and la != lb
    gate(9, "k-means inertia non-increasing; separated clusters recovered exactly",
         monotone and separated)


# -- criterion 10: comparison-table format -------------------------------------------

def test_criterion_10_table_format():
    def rep(acc, bp, spec):
        return EvalReport(
            num_classes=6, total=138, accuracy=acc, balanced_precision=bp,
            weighted_precision=0.0, weighted_sensitivity=0.0,
            weighted_specificity=spec, per_class=[], confusion=[],
        )

    rows = compare_report(rep(0.87, 0.88, 0.87), [rep(0.85, 0.87, 0.85)],
                          model_name="fusion-cnn", annotators_name="doctors")
    lines = comparison_to_csv(rows).strip().splitlines()
    ok = lines[1] == "doctors,0.85,0.87,0.85" and lines[2] == "fusion-cnn,0.87,0.88,0.87"
    gate(10, "comparison table reproduces the reference rows verbatim", ok)
