"""Procedural synthetic radiograph generator and dataset manifests.

Images are dark, noisy backgrounds with a top-to-bottom brightness gradient
(the orientation cue) and bright vertically elongated blobs whose placement
encodes the class:

    0  upper-left      1  upper-right
    2  lower-left      3  lower-right
    4  upper band crossing the vertical midline
    5  lower band crossing the vertical midline

The default class counts are (108, 126, 103, 105, 48, 15) - a 1/5-scale
profile that keeps the smallest class at ~3% of the total, so the
class-imbalance machinery has something real to chew on.

Manifests are CSV files (`path,class_id,rotation` plus a leading
`# seed=<n>` comment line); image paths are stored relative to the
manifest's directory.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dxpipe.enhance import equalize_stack, for_each_stack
from dxpipe.fileio import csv_records, csv_text, read_ascii, write_atomic
from dxpipe.image import load_pgm, save_pgm

NUM_CLASSES = 6

# full-size class counts, heavily imbalanced on purpose
FULL_CLASS_COUNTS = (541, 632, 513, 523, 242, 75)
# the most images one dataset may ask for: about 40 times the full counts
MAX_IMAGES = 100_000
# the largest image side: generate_image holds about 14 traced bytes a
# pixel at its peak (at 1024 and at 2048 px), about 235 MB at 4096 px, and
# each doubling beyond takes four times that
MAX_IMAGE_SIZE = 4096


@dataclass(frozen=True)
class SynthParams:
    image_size: int = 32
    noise_impulse_prob: float = 0.02
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 16 <= self.image_size <= MAX_IMAGE_SIZE:
            raise ValueError(f"image_size must be 16..{MAX_IMAGE_SIZE}, got {self.image_size}")
        if not 0.0 <= self.noise_impulse_prob <= 1.0:
            raise ValueError(f"noise_impulse_prob must be in [0,1], got {self.noise_impulse_prob}")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    class_id: int
    rotation: int = 0  # clockwise quarter turns, 0..3


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    seed: int = 0
    root: Path = field(default_factory=Path)

    def class_counts(self, num_classes: int = NUM_CLASSES) -> np.ndarray:
        counts = np.zeros(num_classes, dtype=np.int64)
        for e in self.entries:
            counts[e.class_id] += 1
        return counts

    def labels(self) -> np.ndarray:
        """The entries' class ids, in order."""
        return np.array([e.class_id for e in self.entries], dtype=np.int64)

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.root / entry.path

    def subset(self, indices) -> "DatasetManifest":
        return DatasetManifest(
            entries=[self.entries[i] for i in indices], seed=self.seed, root=self.root
        )


def default_class_counts(scale: float = 0.2) -> list[int]:
    """Scale the full-size class counts, rounding to the nearest integer.
    A scale that is not finite and positive, that makes a count overflow to
    infinity, that rounds every count to 0 or that gives more than
    MAX_IMAGES images in all gives no dataset and raises ValueError."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    scaled = [n * scale for n in FULL_CLASS_COUNTS]
    if not all(map(math.isfinite, scaled)):
        raise ValueError(f"scale {scale} gives class counts that are not finite")
    counts = [round(c) for c in scaled]
    if not any(counts):
        raise ValueError(f"scale {scale} gives no images: every class count rounds to 0")
    if sum(counts) > MAX_IMAGES:
        raise ValueError(f"scale {scale} gives more than {MAX_IMAGES} images")
    return counts


# bounding boxes (x0, x1, y0, y1) as fractions of the image side
_CLASS_BOXES = (
    (0.08, 0.42, 0.10, 0.40),
    (0.58, 0.92, 0.10, 0.40),
    (0.08, 0.42, 0.60, 0.90),
    (0.58, 0.92, 0.60, 0.90),
    (0.25, 0.75, 0.10, 0.40),
    (0.25, 0.75, 0.60, 0.90),
)

_BG_TOP = 55.0
_BG_BOTTOM = 10.0
_BG_JITTER = 4
_BLOB_COUNT_RANGE = (3, 6)
_BLOB_MIN_VAL = 150
_BLOB_MAX_VAL = 230


def generate_image(class_id: int, p: SynthParams, seed: int) -> np.ndarray:
    """Render one deterministic synthetic radiograph for the given class,
    as an (S, S) uint8 array."""
    if not 0 <= class_id < NUM_CLASSES:
        raise ValueError(f"class_id must be 0..{NUM_CLASSES - 1}, got {class_id}")
    rng = np.random.default_rng(
        np.random.SeedSequence([p.rng_seed & (2**64 - 1), class_id, seed & (2**64 - 1)])
    )
    s = p.image_size

    # The jitter is an integer, so floor(base + jitter) = floor(base) + jitter:
    # the background has the bytes of the float sum clipped and truncated to
    # uint8, as the blobs do of their float maximum.
    rows = np.arange(s, dtype=np.float64)
    base = np.floor(_BG_TOP + (_BG_BOTTOM - _BG_TOP) * rows / (s - 1)).astype(np.int32)
    bg = rng.integers(-_BG_JITTER, _BG_JITTER + 1, size=(s, s), dtype=np.int32)
    bg += base[:, None]
    canvas = np.clip(bg, 2, 63, out=bg).astype(np.uint8)

    x0f, x1f, y0f, y1f = _CLASS_BOXES[class_id]
    x0, x1 = x0f * s, x1f * s
    y0, y1 = y0f * s, y1f * s
    lo, hi = _BLOB_COUNT_RANGE
    n_blobs = int(rng.integers(lo, hi + 1))
    for i in range(n_blobs):
        # blobs fan out left-to-right across the class box so bands for
        # classes 4/5 always straddle the midline
        cx = x0 + (i + 0.5) * (x1 - x0) / n_blobs + rng.uniform(-0.04, 0.04) * s
        cy = (y0 + y1) / 2.0 + rng.uniform(-0.08, 0.08) * s
        rx = max(1.0, rng.uniform(0.025, 0.05) * s)
        ry = rng.uniform(0.10, 0.16) * s
        val = int(rng.integers(_BLOB_MIN_VAL, _BLOB_MAX_VAL + 1))
        # The blob is drawn in its bounding box, padded by one pixel on each
        # side. A pixel outside the box is at least rx + 1 (or ry + 1) from the
        # centre, so its x (or y) term exceeds 1 by far more than float
        # rounding can take back: a whole-canvas test leaves it unchanged too.
        c0, c1 = max(0, math.floor(cx - rx) - 1), min(s, math.ceil(cx + rx) + 2)
        r0, r1 = max(0, math.floor(cy - ry) - 1), min(s, math.ceil(cy + ry) + 2)
        xx = np.arange(c0, c1)[None, :]
        yy = np.arange(r0, r1)[:, None]
        mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
        box = canvas[r0:r1, c0:c1]
        np.maximum(box, val, out=box, where=mask)

    if p.noise_impulse_prob > 0.0:
        impulses = rng.random((s, s)) < p.noise_impulse_prob
        salt = rng.integers(0, 2, size=(s, s), dtype=np.int32)
        canvas[impulses] = salt[impulses] * 255
    return canvas


def generate_dataset(counts: list[int], p: SynthParams, out_dir: Path | str) -> DatasetManifest:
    """Write counts[c] images of class c to out_dir, for each of the
    NUM_CLASSES classes, and return the manifest describing them (the caller
    saves it)."""
    if len(counts) != NUM_CLASSES:
        raise ValueError(f"counts must hold {NUM_CLASSES} class counts, got {len(counts)}")
    for class_id, count in enumerate(counts):
        if count < 0:
            raise ValueError(f"class {class_id} count must be >= 0, got {count}")
    out_dir = Path(out_dir)
    manifest = DatasetManifest(seed=p.rng_seed, root=out_dir)
    for class_id, count in enumerate(counts):
        for i in range(count):
            img = generate_image(class_id, p, seed=(class_id << 32) | i)
            name = f"class{class_id}_{i:04d}.pgm"
            save_pgm(img, out_dir / name)
            manifest.entries.append(ManifestEntry(name, class_id))
    return manifest


def amplify_minority(
    manifest: DatasetManifest, class_ids: list[int]
) -> DatasetManifest:
    """Add a histogram-equalized copy of every image in the listed classes.

    New entries keep the source label and rotation; files land next to the
    originals with a `_he` suffix.  Each run of same-shape images is
    equalized by one enhance.equalize_stack call.
    """
    for cid in class_ids:
        if not 0 <= cid < NUM_CLASSES:
            raise ValueError(f"class_id {cid} out of range")
    wanted = set(class_ids)
    out = DatasetManifest(entries=list(manifest.entries), seed=manifest.seed, root=manifest.root)

    def loaded():
        for e in manifest.entries:
            if e.class_id in wanted:
                src = manifest.resolve(e)
                if not src.exists():
                    raise FileNotFoundError(f"missing source image {src}")
                yield e, load_pgm(src)

    def equalize(entries, stack) -> None:
        for e, equalized in zip(entries, equalize_stack(stack)):
            name = f"{Path(e.path).stem}_he.pgm"
            save_pgm(equalized, manifest.root / name)
            out.entries.append(ManifestEntry(name, e.class_id, e.rotation))

    for_each_stack(loaded(), equalize)
    return out


_MANIFEST_HEADER = "path,class_id,rotation"


def save_manifest(manifest: DatasetManifest, path: Path | str) -> None:
    """Write the manifest so its image paths resolve from the file's directory."""
    path = Path(path)
    rows = ([os.path.relpath(manifest.root / e.path, path.parent), e.class_id, e.rotation]
            for e in manifest.entries)
    text = f"# seed={manifest.seed}\n" + csv_text(_MANIFEST_HEADER.split(","), rows)
    write_atomic(path, text.encode("ascii"))


class ManifestError(ValueError):
    """Raised for a manifest file that is not in the layout save_manifest writes."""


# the class_id and rotation fields save_manifest writes, and their values
_CLASS_FIELDS = {str(c): c for c in range(NUM_CLASSES)}
_ROTATION_FIELDS = {str(r): r for r in range(4)}
# a "#" line before the header, and its row end
_COMMENT_LINE = re.compile(r"#([^\r\n]*)(?:\r\n?|\n)?")


def load_manifest(path: Path | str) -> DatasetManifest:
    """Read a manifest in save_manifest's layout: ASCII, '#' comment lines
    (one may be '# seed=<n>') before the header, then one path,class_id,rotation
    row per image.  Anything else raises ManifestError naming the file."""
    path = Path(path)
    text = read_ascii(path, ManifestError, f"manifest {path}")
    start = comments = 0
    seed = 0
    while comment := _COMMENT_LINE.match(text, start):
        start = comment.end()
        comments += 1
        stripped = comment[1].strip()
        if stripped.startswith("seed="):
            value = stripped[len("seed=") :]
            try:
                if not re.fullmatch(r"-?[0-9]+", value):
                    raise ValueError
                seed = int(value)  # also raises for more digits than int() converts
            except ValueError:
                raise ManifestError(f"manifest {path}: bad seed {value!r}") from None
    entries = []
    seen = set()
    records = csv_records(text[start:], ManifestError, f"manifest {path}", comments)
    _, header = next(records, (0, None))
    if header != _MANIFEST_HEADER.split(","):
        raise ManifestError(f"bad manifest header {header!r} in {path}")
    for line, row in records:
        if not row:
            continue
        if len(row) != 3 or not row[0]:
            raise ManifestError(f"manifest {path} line {line}: expected {_MANIFEST_HEADER}")
        rel, cid, rot = row[0], _CLASS_FIELDS.get(row[1]), _ROTATION_FIELDS.get(row[2])
        if cid is None:
            raise ManifestError(f"manifest {path} line {line}: bad class_id {row[1]!r}")
        if rot is None:
            raise ManifestError(f"manifest {path} line {line}: bad rotation {row[2]!r}")
        if rel in seen:
            raise ManifestError(f"duplicate manifest path {rel!r} in {path}")
        seen.add(rel)
        entries.append(ManifestEntry(rel, cid, rot))
    return DatasetManifest(entries=entries, seed=seed, root=path.parent)
