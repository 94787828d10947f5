"""Learned 4-way pose detection and automatic rotation correction.

The pose model is the same fusion architecture with four output classes.
Its training stream emits every image under all four quarter-turns with the
turn index as the label, so quarter-turn rotations are lossless to undo:
whenever the predicted turn equals the applied one, correction restores the
original image exactly.
"""

from __future__ import annotations

import numpy as np

from dxpipe.image import rotate
from dxpipe.nnet import FusionNet, ModelConfig, config_for_orientation
from dxpipe.trainer import TrainConfig, TrainingSet, TrainLog, _fit


def orientation_stream(n_images: int, seed) -> list[tuple[int, int, int]]:
    """Shuffled (image index, turns, label=turns) covering all four poses."""
    pairs = [(i, t, t) for i in range(n_images) for t in range(4)]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def _all_turns(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every image under every quarter-turn, with turn labels."""
    posed = np.stack([rotate(img, t) for img in images for t in range(4)])
    return posed, np.tile(np.arange(4, dtype=np.int64), len(images))


def train_orient(
    data: TrainingSet, model_cfg: ModelConfig, t: TrainConfig
) -> tuple[FusionNet, TrainLog]:
    """Train the pose classifier on data's canonical-pose images; returns
    the model holding the best-validation epoch's parameters."""
    val_images, val_labels = _all_turns(data.val_images)

    def stream_fn(epoch: int):
        return orientation_stream(
            len(data.images), np.random.SeedSequence([t.seed & (2**64 - 1), 0xB0, epoch])
        )

    cfg = config_for_orientation(model_cfg)
    return _fit(cfg, data.images, stream_fn, val_images, val_labels, np.ones(4), t)


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
