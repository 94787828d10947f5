"""Byte-identity check: run a fixed CLI script and print a digest of every file.

    python tools/golden_run.py OUT_DIR

OUT_DIR must be missing or empty. The script synthesizes a 32 px dataset
(scale 0.1), a 1024 px one and a 1000 px one (scale 0.005 each), and a
32 px one (scale 0.02) with --amplify (equalized copies of its two
smallest classes). It
enhances the 1024 px images (row strips, large-tile histograms, CLAHE in
16-bit lanes with tile centres 128 px apart), runs their radius-2 median
alone (the comparator network) and their CLAHE alone with 4x4 tiles
(centres 256 px apart: 32-bit lanes, on row strips), runs CLAHE alone
with 8x8 tiles on the 1000 px images (centres 125 px apart: 16-bit lanes
and a divisor that is no power of two, at radiograph scale), equalizes and
clusters the 1024 px and the 1000 px images (histogram equalization over
byte pairs; the pHash resize by block sums at 1024 px and by the weight
GEMM at 1000 px), enhances the small images with 8x8 tiles (stacks of whole
images: small-tile histograms, the 3x3 median and tile tables of several
images in one block) and with 2x2 tiles (the configuration the inference
benchmark uses), runs CLAHE alone with a 3x5 tile grid on the small ones
(tile-band edges inside each stack, tiles of unequal sizes: a divisor per
column), clusters the small images, trains the region classifier with a
weighting report (a uniform-loss twin) and again under --uniform-loss with
one (a class-weighted twin), trains it for one epoch without rotation
augmentation (--no-augment), trains the pose model, corrects the pose of
one small image of each class and of 40 small images (eval passes of 16
rows and a last one of 8), predicts and evaluates on the validation
split, evaluates the predictions CSV too, and merges the two eval reports
into a comparison table, so every CSV and JSON writer and every text
reader runs. It
predicts and evaluates on all 252 small images too: eval passes of 16 rows
and a last one of 12. Last it re-runs both trainings with a weighting
report into their used directories, which must leave every byte as it was.
It prints one `sha256  relpath` line per file written, in path order, and
last the SHA-256 of those lines. Run it on two
trees (each with its own `src/`) into two directories: the same last line
means every artefact has the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dxpipe.cli import run  # noqa: E402


def _script(out: Path) -> list[list[str]]:
    small, large, mid, train = out / "small", out / "large", out / "mid", out / "train"
    every = ["--manifest", str(small / "manifest.csv")]
    fit = [*every, "--epochs"]
    val = ["--manifest", str(train / "val_manifest.csv")]
    ckpt = ["--checkpoint", str(train / "checkpoint.bin")]
    posed = [str(small / f"class{c}_0000.pgm") for c in range(6)]
    posed_40 = [str(small / f"class{c}_{i:04d}.pgm") for c in range(4) for i in range(10)]
    weighted = ["--out-dir", str(train), "train", *fit, "2",
                "--weighting-report", str(train / "weighting.json")]
    uniform = ["--out-dir", str(out / "train_uniform"), "train", *fit, "2", "--uniform-loss",
               "--weighting-report", str(out / "train_uniform" / "weighting.json")]
    return [
        ["--out-dir", str(small), "synth", "--scale", "0.1", "--image-size", "32"],
        ["--out-dir", str(large), "synth", "--scale", "0.005", "--image-size", "1024"],
        ["--out-dir", str(out / "amplified"), "synth", "--scale", "0.02", "--amplify"],
        ["--out-dir", str(out / "enhanced"), "enhance", str(large)],
        ["--out-dir", str(out / "median2"), "enhance", str(large), "--stage", "median",
         "--median-radius", "2"],
        ["--out-dir", str(out / "clahe_large"), "enhance", str(large), "--stage", "clahe",
         "--tiles", "4", "4"],
        ["--out-dir", str(mid), "synth", "--scale", "0.005", "--image-size", "1000"],
        ["--out-dir", str(out / "clahe_mid"), "enhance", str(mid), "--stage", "clahe",
         "--tiles", "8", "8"],
        ["--out-dir", str(out / "equalized_large"), "enhance", str(large), "--stage", "equalize"],
        ["--out-dir", str(out / "equalized_mid"), "enhance", str(mid), "--stage", "equalize"],
        ["--out-dir", str(out / "cluster_large"), "cluster", "--manifest",
         str(large / "manifest.csv"), "--k", "6"],
        ["--out-dir", str(out / "cluster_mid"), "cluster", "--manifest",
         str(mid / "manifest.csv"), "--k", "6"],
        ["--out-dir", str(out / "enhanced_small"), "enhance", str(small)],
        ["--out-dir", str(out / "enhanced_small_2x2"), "enhance", str(small),
         "--tiles", "2", "2", "--clip", "1.5"],
        ["--out-dir", str(out / "clahe"), "enhance", str(small), "--stage", "clahe",
         "--tiles", "3", "5", "--clip", "1.5"],
        weighted,
        uniform,
        ["--out-dir", str(out / "train_no_augment"), "train", *fit, "1", "--no-augment"],
        ["--out-dir", str(out / "cluster"), "cluster", "--manifest", str(small / "manifest.csv")],
        ["--out-dir", str(out / "orient"), "orient-train", *fit, "1"],
        ["--out-dir", str(out / "posed"), "orient", "--checkpoint",
         str(out / "orient" / "orient_checkpoint.bin"), *posed],
        ["--out-dir", str(out / "posed_40"), "orient", "--checkpoint",
         str(out / "orient" / "orient_checkpoint.bin"), *posed_40],
        ["--out-dir", str(out / "predict"), "predict", *ckpt, *val],
        ["--out-dir", str(out / "eval"), "eval", *ckpt, *val],
        ["--out-dir", str(out / "predict_all"), "predict", *ckpt, *every],
        ["--out-dir", str(out / "eval_all"), "eval", *ckpt, *every],
        ["--out-dir", str(out / "eval_predictions"), "eval", "--predictions",
         str(out / "predict" / "predictions.csv"), *val],
        ["--out-dir", str(out / "report"), "report", "--model", str(out / "eval" / "eval_report.json"),
         "--annotators", str(out / "eval_predictions" / "eval_report.json")],
        weighted,
        uniform,
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/golden_run.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    for args in _script(out):
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the digests
            status = run(args)
        if status != 0:
            print(f"error: dxpipe {' '.join(args)} failed", file=sys.stderr)
            return 1
    lines = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
        for path in sorted(p for p in out.rglob("*") if p.is_file())
    ]
    summary = "\n".join(lines) + "\n"
    sys.stdout.write(summary)
    print(hashlib.sha256(summary.encode("ascii")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
