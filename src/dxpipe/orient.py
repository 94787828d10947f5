"""Learned 4-way pose detection and automatic rotation correction.

The pose model is the same fusion architecture with four output classes.
Each epoch is a shuffled range(4 * N): pick p is image p // 4 turned p % 4,
labelled p % 4.  Quarter-turn rotations are lossless to undo: whenever the
predicted turn equals the applied one, correction restores the original
image exactly.
"""

from __future__ import annotations

import numpy as np

from dxpipe.image import rotate
from dxpipe.nnet import FusionNet, ModelConfig, config_for_orientation
from dxpipe.trainer import TrainConfig, TrainingSet, TrainLog, _fit, _posed


def orientation_stream(n_images: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled (image indices, turns, labels = turns) arrays holding each
    (image, turn) pair of all four poses once."""
    picks = np.random.default_rng(seed).permutation(4 * n_images)
    return picks // 4, picks % 4, picks % 4


def train_orient(
    data: TrainingSet, model_cfg: ModelConfig, t: TrainConfig
) -> tuple[FusionNet, TrainLog]:
    """Train the pose classifier on data's canonical-pose images; returns
    the model holding the best-validation epoch's parameters."""

    def stream_fn(epoch: int):
        seed = np.random.SeedSequence([t.seed & (2**64 - 1), 0xB0, epoch])
        return orientation_stream(len(data.images), seed)

    picks = np.arange(4 * len(data.val_images))  # validation: every image under every turn
    val_images = _posed(data.val_images, picks // 4, picks % 4)
    cfg = config_for_orientation(model_cfg)
    return _fit(cfg, data.images, stream_fn, val_images, picks % 4, np.ones(4), t)


def correct_orientation(
    model: FusionNet, images: np.ndarray
) -> list[tuple[np.ndarray, int, float]]:
    """Detect the quarter-turn pose of each image of an (N, H, W) uint8 stack
    and rotate it back to canonical.

    All images are scored together by the batched eval loop.  Returns one
    (corrected image, detected clockwise turns 0..3, confidence) per image,
    where the confidence is the max softmax score.  Ties resolve to the
    lowest index.
    """
    if model.config.num_classes != 4:
        raise ValueError("pose model must have 4 output classes")
    scores = model.predict(images)
    turns = [int(t) for t in scores.argmax(axis=1)]
    return [(rotate(img, -t), t, float(row.max())) for img, t, row in zip(images, turns, scores)]
