"""Training orchestration: class weighting, rotation augmentation,
stratified splits, the SGD loop with stepped learning-rate decay, and
best-validation model selection.

A command sets its data up once, as a TrainingSet: one split and one read
of each image, shared by all its trainings and reports. Training takes that
TrainingSet and returns the model holding the best epoch's parameters, with
its log; saving it is the caller's step. An epoch is three aligned int64
arrays in training order (image indices, clockwise quarter-turns, labels),
and one loop, _fit, trains the region and the pose (orient) classifier on it.

Everything is deterministic per seed: the split, the per-epoch shuffles and
rotation draws, the dropout masks, and therefore the resulting parameters
and log bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from dxpipe.fileio import csv_text
from dxpipe.image import load_pgms, rotate
from dxpipe.metrics import confusion, per_class_metrics
from dxpipe.nnet import FusionNet, ModelConfig, sgd_step, softmax, to_input, weighted_ce
from dxpipe.synth import DatasetManifest, ManifestError


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    lr_decay_factor: float = 0.5
    lr_decay_every: int = 10
    seed: int = 42
    validation_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.lr_decay_every < 1:
            raise ValueError("epochs, batch_size and lr_decay_every must be >= 1")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError(f"lr_decay_factor must be in (0,1], got {self.lr_decay_factor}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0,1), got {self.validation_fraction}"
            )


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float
    lr: float


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_scores: np.ndarray | None = None  # the best epoch's validation softmax scores

    def to_csv(self) -> str:
        return csv_text(
            ["epoch", "train_loss", "val_loss", "val_acc", "lr"],
            ([e.epoch, f"{e.train_loss:.6f}", f"{e.val_loss:.6f}", f"{e.val_acc:.6f}", f"{e.lr:.8g}"]
             for e in self.epochs),
        )


def compute_class_weights(manifest: DatasetManifest, num_classes: int = 6) -> np.ndarray:
    """Inverse-frequency weights N / (C * n_c); a balanced set yields all ones."""
    counts = manifest.class_counts(num_classes)
    if (counts == 0).any():
        empty = [int(c) for c in np.nonzero(counts == 0)[0]]
        raise ValueError(f"empty classes: {empty}")
    total = counts.sum()
    return total / (num_classes * counts.astype(np.float64))


def augment_epoch(n: int, seed, rotations: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled (entry indices, quarter-turns) arrays for one epoch of n entries.

    One emission per entry (augmentation happens on the fly, the dataset is
    not inflated); the region label never changes.  Without rotations every
    turn is 0.  Pass a (seed, epoch) tuple for a per-epoch stream.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    turns = rng.integers(0, 4, size=n) if rotations else np.zeros(n, dtype=np.int64)
    return order, turns


def stratified_split(
    manifest: DatasetManifest, fraction: float, seed
) -> tuple[DatasetManifest, DatasetManifest]:
    """(train, validation) split keeping every class with >= 2 members in both."""
    by_class: dict[int, list[int]] = {}
    for i, e in enumerate(manifest.entries):
        by_class.setdefault(e.class_id, []).append(i)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for cid in sorted(by_class):
        idx = np.array(by_class[cid])
        perm = rng.permutation(len(idx))
        n = len(idx)
        if n < 2:
            train_idx.extend(int(i) for i in idx)
            continue
        n_val = min(n - 1, max(1, round(fraction * n)))
        chosen = idx[perm]
        val_idx.extend(int(i) for i in chosen[:n_val])
        train_idx.extend(int(i) for i in chosen[n_val:])
    return manifest.subset(sorted(train_idx)), manifest.subset(sorted(val_idx))


def load_image_array(manifest: DatasetManifest) -> np.ndarray:
    """All manifest images as a uint8 array (N, S, S)."""
    return load_pgms(map(manifest.resolve, manifest.entries))


class TrainingSet(NamedTuple):
    """A manifest's (train, validation) partition and its uint8 images."""

    train: DatasetManifest
    val: DatasetManifest
    images: np.ndarray
    val_images: np.ndarray


def training_set(manifest: DatasetManifest, t: TrainConfig) -> TrainingSet:
    """manifest split for t, then each of its images read once.  An empty
    validation split, where no class has 2 or more images, is a ManifestError
    raised before any image is read: training selects its model on that split."""
    train_m, val_m = stratified_split(
        manifest, t.validation_fraction, np.random.SeedSequence([t.seed & (2**64 - 1), 0x57])
    )
    if not val_m.entries:
        raise ManifestError("the validation split is empty (no class has 2 or more images)")
    return TrainingSet(train_m, val_m, load_image_array(train_m), load_image_array(val_m))


def _posed(images: np.ndarray, index: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """images[index[j]] turned turns[j] quarter-turns clockwise, stacked."""
    return np.stack([rotate(images[i], k) for i, k in zip(index, turns)])


def evaluate_arrays(
    model: FusionNet,
    images: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, float, np.ndarray]:
    """Eval-mode (loss, accuracy, softmax scores) over uint8 images (N, S, S);
    the loss is the weighted cross-entropy of the whole set."""
    logits = model.eval_logits(images)
    loss, _ = weighted_ce(logits, labels, weights)
    scores = softmax(logits)
    acc = float((scores.argmax(axis=1) == labels).mean())
    return loss, acc, scores


# Divergence is reported by _require_finite (layer, epoch and batch) as one
# error; numpy's overflow warnings would only precede it on stderr.
@np.errstate(over="ignore", invalid="ignore")
def _fit(
    model_cfg: ModelConfig,
    images: np.ndarray,
    stream_fn,
    val_images: np.ndarray,
    val_labels: np.ndarray,
    weights: np.ndarray,
    t: TrainConfig,
) -> tuple[FusionNet, TrainLog]:
    """Shared SGD loop on uint8 images; stream_fn(epoch) returns the epoch's
    (index, turns, labels) arrays, batched batch_size rows at a time.

    A training holds one forward cache at a time: each batch's input, cache,
    logits and gradients are released as soon as sgd_step has used them, so
    no forward pass and no validation pass runs beside an earlier step's
    cache.
    """
    model = FusionNet(model_cfg, seed=t.seed)
    velocity: dict[str, np.ndarray] = {}
    dropout_rng = np.random.default_rng(np.random.SeedSequence([t.seed & (2**64 - 1), 0xD0]))
    log = TrainLog()
    best_acc = -1.0
    best_params: dict[str, np.ndarray] = {}
    for epoch in range(t.epochs):
        lr = t.lr * t.lr_decay_factor ** (epoch // t.lr_decay_every)
        index, turns, labels = stream_fn(epoch)
        loss_sum = 0.0
        for batch, start in enumerate(range(0, len(index), t.batch_size)):
            rows = slice(start, start + t.batch_size)
            xb = to_input(_posed(images, index[rows], turns[rows]))
            yb = labels[rows]
            try:
                logits, cache = model.forward(xb, train_mode=True, rng=dropout_rng)
            except FloatingPointError as exc:
                raise FloatingPointError(f"epoch {epoch} batch {batch}: {exc}") from None
            loss, dlogits = weighted_ce(logits, yb, weights)
            sgd_step(model.params, model.backward(cache, dlogits), velocity, lr, t.momentum)
            del xb, logits, cache, dlogits
            loss_sum += loss * len(yb)
        train_loss = loss_sum / len(index)
        try:
            val_loss, val_acc, scores = evaluate_arrays(model, val_images, val_labels, weights)
        except FloatingPointError as exc:
            raise FloatingPointError(f"epoch {epoch} validation: {exc}") from None
        log.epochs.append(EpochStats(epoch, train_loss, val_loss, val_acc, lr))
        if val_acc > best_acc:
            best_acc = val_acc
            log.best_epoch = epoch
            log.best_scores = scores
            best_params = {k: v.copy() for k, v in model.params.items()}
    model.params = best_params
    return model, log


def train(
    data: TrainingSet, model_cfg: ModelConfig, t: TrainConfig,
    *, uniform: bool = False, augment: bool = True,
) -> tuple[FusionNet, TrainLog]:
    """Train the region classifier on data, built for t by training_set;
    returns the model holding the best-validation epoch's parameters.

    The loss weights classes by inverse frequency over the training partition,
    or alike with uniform (a missing class is refused either way); augment
    turns each image a random number of quarter-turns in each epoch.
    """
    weights = compute_class_weights(data.train, model_cfg.num_classes)  # refuses a missing class
    if uniform:
        weights = np.ones(model_cfg.num_classes)
    labels = data.train.labels()

    def stream_fn(epoch: int):
        seed = np.random.SeedSequence([t.seed & (2**64 - 1), 0xA0, epoch])
        order, turns = augment_epoch(len(labels), seed, rotations=augment)
        return order, turns, labels[order]

    return _fit(model_cfg, data.images, stream_fn, data.val_images, data.val.labels(), weights, t)


def compare_weighting(data: TrainingSet, weighted: TrainLog, uniform: TrainLog) -> dict:
    """The weighting.json report of two same-seed trainings of data, with
    inverse-frequency and with uniform weights: the per-class validation
    recall of each one's best-epoch scores, side by side, and the minority class."""
    n = weighted.best_scores.shape[1]
    val_labels = data.val.labels()
    recall = {}
    for mode, log in (("weighted", weighted), ("uniform", uniform)):
        cm = confusion(val_labels, log.best_scores.argmax(axis=1), n)
        recall[mode] = [float(r) for r in per_class_metrics(cm).sensitivity]
    counts = data.train.class_counts(n) + data.val.class_counts(n)
    minority = int(np.argmin(np.where(counts > 0, counts, np.iinfo(np.int64).max)))
    return {
        "per_class": [
            {"class_id": c, "weighted_recall": wr, "uniform_recall": ur}
            for c, (wr, ur) in enumerate(zip(recall["weighted"], recall["uniform"]))
        ],
        "weighted_accuracy": weighted.epochs[weighted.best_epoch].val_acc,
        "uniform_accuracy": uniform.epochs[uniform.best_epoch].val_acc,
        "minority_class": minority,
        "minority_recall": {mode: recall[mode][minority] for mode in ("weighted", "uniform")},
    }
