"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from dxpipe import nnet, synth


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Brute-force ranking statistic: P(score+ > score-) + P(tie)/2."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def constant_image(w: int, h: int, value: int) -> np.ndarray:
    return np.full((h, w), value, dtype=np.uint8)


def random_image(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    return rng.integers(0, 256, size=(h, w), dtype=np.uint8)


def forward_with_conv_maps(model, x, train_mode=False, rng=None):
    """model.forward(x, train_mode, rng) as (logits, cache, maps), where maps
    holds each branch's post-ReLU conv maps, {"branch_a": (c1, c2),
    "branch_b": (c1, c2)}.  The forward cache keeps none of them: they are
    the four nnet.conv2d_forward outputs in call order (a.conv1, a.conv2,
    b.conv1, b.conv2), which the forward's in-place ReLUs turn into c1/c2."""
    outs = []
    conv2d_forward = nnet.conv2d_forward

    def recording(*args):
        out, cols = conv2d_forward(*args)
        outs.append(out)
        return out, cols

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nnet, "conv2d_forward", recording)
        logits, cache = model.forward(x, train_mode, rng)
    assert len(outs) == 4
    return logits, cache, {"branch_a": tuple(outs[:2]), "branch_b": tuple(outs[2:])}


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Six classes x 10 images; used by trainer/orient/cluster tests."""
    out = tmp_path_factory.mktemp("tiny_data")
    params = synth.SynthParams(rng_seed=5)
    return synth.generate_dataset([10] * synth.NUM_CLASSES, params, out)


@pytest.fixture(scope="session")
def default_dataset(tmp_path_factory):
    """The full default synthetic dataset (505 images, seed 42)."""
    out = tmp_path_factory.mktemp("default_data")
    params = synth.SynthParams(rng_seed=42)
    return synth.generate_dataset(synth.default_class_counts(), params, out)
