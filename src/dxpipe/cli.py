"""Single command-line entry point for the whole pipeline.

Subcommands: synth, enhance, cluster, train, orient-train, orient,
predict, eval, report.  Every run prints its effective configuration and
is reproducible from (inputs, flags, seed); all randomness flows from the
--seed flag, with fixed per-component offsets.  `run(argv)` may be called
any number of times in one process: the parser is built on the first call
and reused.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from dataclasses import fields
from functools import cache, partial
from pathlib import Path

import numpy as np

from dxpipe import checkpoint as ckpt_io
from dxpipe import cluster as cluster_mod
from dxpipe import enhance as enhance_mod
from dxpipe import fileio
from dxpipe import metrics as metrics_mod
from dxpipe import orient as orient_mod
from dxpipe import synth as synth_mod
from dxpipe import trainer as trainer_mod
from dxpipe.image import load_pgm, load_pgms, save_pgm
from dxpipe.nnet import ModelConfig


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  parse_args makes a new Namespace and
    changes no action, so it is reused; the list defaults (--tiles,
    --annotators) are shared by every run's Namespace, and no command
    changes them."""
    parser = argparse.ArgumentParser(
        prog="dxpipe",
        description="grayscale radiograph pipeline: synthesize, enhance, "
        "orient, classify, evaluate",
    )
    parser.add_argument("--seed", type=int, default=42, help="master random seed")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic dataset")
    p.add_argument("--scale", type=float, default=0.2, help="class-count scale factor")
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.02, help="impulse-noise probability")
    p.add_argument("--amplify", action="store_true", help="add equalized copies of the two smallest classes")

    p = sub.add_parser("enhance", help="enhance a PGM file or directory")
    p.add_argument("input", type=Path)
    p.add_argument("--stage", choices=["chain", "sharpen", "median", "equalize", "clahe"], default="chain")
    p.add_argument("--tiles", type=int, nargs=2, default=[8, 8], metavar=("X", "Y"))
    p.add_argument("--clip", type=float, default=2.0)
    p.add_argument("--median-radius", type=int, default=1)

    p = sub.add_parser("cluster", help="perceptual-hash / k-means dataset report")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--k", type=int, default=6)

    for name in ("train", "orient-train"):
        p = sub.add_parser(name, help=f"{'pose' if name.startswith('orient') else 'region'} classifier training")
        p.add_argument("--manifest", type=Path, required=True)
        p.add_argument("--epochs", type=int, default=40)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--lr", type=float, default=0.01)
        p.add_argument("--momentum", type=float, default=0.9)
        p.add_argument("--lr-decay-factor", type=float, default=0.5)
        p.add_argument("--lr-decay-every", type=int, default=10)
        p.add_argument("--validation-fraction", type=float, default=0.15)
        p.add_argument("--input-size", type=int, default=32)
        p.add_argument("--branch-a-dim", type=int, default=66)
        p.add_argument("--branch-b-dim", type=int, default=96)
        p.add_argument("--fusion-dim", type=int, default=128)
        p.add_argument("--dropout", type=float, default=0.5)
        p.add_argument("--full-scale", action="store_true", help="preset: 1056/1536/2048 dims")
        if name == "train":
            p.add_argument("--no-augment", action="store_true", help="disable rotation augmentation")
            p.add_argument("--uniform-loss", action="store_true", help="disable class weighting")
            p.add_argument(
                "--weighting-report",
                type=Path,
                default=None,
                help="also train a uniform-loss twin and write the recall comparison JSON",
            )

    p = sub.add_parser("orient", help="auto-correct image orientation")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("inputs", type=Path, nargs="+")

    p = sub.add_parser("predict", help="classify images with a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--manifest", type=Path, default=None)
    p.add_argument("inputs", type=Path, nargs="*")

    p = sub.add_parser("eval", help="evaluate a checkpoint or a predictions CSV against a manifest")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--predictions", type=Path, default=None, help="predictions CSV from `predict`")
    p.add_argument("--manifest", type=Path, required=True)

    p = sub.add_parser("report", help="merge eval reports into a comparison table")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--model-name", default="model")
    p.add_argument("--annotators", type=Path, nargs="*", default=[])
    p.add_argument("--annotators-name", default="annotators")
    return parser


def _print_config(args: argparse.Namespace) -> None:
    pairs = ", ".join(f"{k}={v}" for k, v in sorted(vars(args).items()))
    print(f"config: {pairs}")


def _model_config(args) -> ModelConfig:
    if args.full_scale:  # preset; overrides the three dim flags
        dims = (1056, 1536, 2048)
    else:
        dims = (args.branch_a_dim, args.branch_b_dim, args.fusion_dim)
    return ModelConfig(args.input_size, *dims, dropout_rate=args.dropout)


def _train_config(args) -> trainer_mod.TrainConfig:
    """Each TrainConfig field from the flag of its name (seed: the global --seed)."""
    return trainer_mod.TrainConfig(
        **{f.name: getattr(args, f.name) for f in fields(trainer_mod.TrainConfig)}
    )


def _write_text(path: Path, text: str) -> None:
    fileio.write_atomic(path, text.encode("ascii"))


def _claim(args, outputs, *flags: str) -> None:
    """The up-front path rule, called before a command reads anything, with
    every file it will write (outputs): two outputs that are one file, or an
    input given by one of flags (any path of a list; "inputs" is the
    positional paths) that is an output, is refused.  Each path is resolved
    once, symlinks and '..' included."""
    claimed = {}
    for path in outputs:
        if claimed.setdefault(os.path.realpath(path), path) is not path:
            raise FileExistsError(f"{path} is written twice by one command")
    for flag in flags:
        value = getattr(args, flag)
        for path in value if isinstance(value, list) else [value]:
            if path is not None and os.path.realpath(path) in claimed:
                name = "input" if flag == "inputs" else f"--{flag}"
                raise ValueError(f"{name} {path} is a file that {args.command} replaces")


def _cmd_synth(args) -> int:
    params = synth_mod.SynthParams(
        image_size=args.image_size, noise_impulse_prob=args.noise, rng_seed=args.seed
    )
    try:
        counts = synth_mod.default_class_counts(args.scale)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None  # the message starts with "scale"
    (args.out_dir / "manifest.csv").unlink(missing_ok=True)  # an index goes first, comes back last
    manifest = synth_mod.generate_dataset(counts, params, args.out_dir)
    if args.amplify:
        present = [c for c, n in enumerate(counts) if n > 0]
        smallest = sorted(present, key=lambda c: (counts[c], c))[:2]
        manifest = synth_mod.amplify_minority(manifest, smallest)
    synth_mod.save_manifest(manifest, args.out_dir / "manifest.csv")
    counts = ", ".join(str(int(c)) for c in manifest.class_counts())
    print(f"wrote {len(manifest.entries)} images to {args.out_dir} (class counts: {counts})")
    return 0


def _cmd_enhance(args) -> int:
    params = enhance_mod.ClaheParams(args.tiles[0], args.tiles[1], args.clip)
    enhance_mod.check_median_radius(args.median_radius, "--median-radius")
    stages = {
        "chain": lambda a: enhance_mod.chain_stack(a, params, args.median_radius),
        "sharpen": enhance_mod.sharpen_stack,
        "median": lambda a: enhance_mod.median_stack(a, args.median_radius),
        "equalize": enhance_mod.equalize_stack,
        "clahe": lambda a: enhance_mod.clahe_stack(a, params),
    }
    fn = stages[args.stage]
    inputs = sorted(args.input.glob("*.pgm")) if args.input.is_dir() else [args.input]
    if not inputs:
        raise FileNotFoundError(f"no PGM files under {args.input}")

    def write(paths, stack) -> None:
        for path, out in zip(paths, fn(stack)):
            save_pgm(out, args.out_dir / path.name)
            if args.verbose:
                print(f"  {path.name}")

    enhance_mod.for_each_stack(((p, load_pgm(p)) for p in inputs), write)
    print(f"enhanced {len(inputs)} image(s) -> {args.out_dir}")
    return 0


def _load_manifest(path: Path) -> synth_mod.DatasetManifest:
    """The manifest at path; one without images is refused by name."""
    manifest = synth_mod.load_manifest(path)
    if not manifest.entries:
        raise synth_mod.ManifestError(f"manifest {path}: no images")
    return manifest


def _cmd_cluster(args) -> int:
    clusters, contingency = args.out_dir / "clusters.csv", args.out_dir / "contingency.csv"
    _claim(args, [clusters, contingency], "manifest")
    manifest = _load_manifest(args.manifest)
    report = cluster_mod.cluster_report(manifest, args.k, seed=args.seed)
    _write_text(clusters, cluster_mod.report_to_csv(report))
    _write_text(contingency, cluster_mod.contingency_to_csv(report))
    print(
        f"clustered {len(report.rows)} images into {args.k} groups "
        f"(inertia {report.result.inertia:.3f}, {report.result.n_iter} iterations)"
    )
    return 0


def _training_set(args, t: trainer_mod.TrainConfig) -> trainer_mod.TrainingSet:
    """args.manifest split and read once, for a model of --input-size; a
    manifest that training cannot split is refused by name before any image
    is read."""
    manifest = _load_manifest(args.manifest)
    try:
        return trainer_mod.training_set(manifest, t, args.input_size)
    except synth_mod.ManifestError as exc:
        raise synth_mod.ManifestError(f"manifest {args.manifest}: {exc}") from None


_TRAIN_OUTPUTS = ("checkpoint.bin", "trainlog.csv", "train_manifest.csv", "val_manifest.csv")


def _save_training(args, what: str, model, log: trainer_mod.TrainLog, ckpt_name, log_name) -> None:
    """Write a trained model's checkpoint and log under --out-dir, and print its summary."""
    ckpt_path = args.out_dir / ckpt_name
    ckpt_io.save_model(model, ckpt_path)
    _write_text(args.out_dir / log_name, log.to_csv())
    if args.verbose:
        print(log.to_csv(), end="")
    acc = log.epochs[log.best_epoch].val_acc
    print(f"trained {what}; best epoch {log.best_epoch} (val_acc {acc:.4f}); wrote {ckpt_path}")


def _cmd_train(args) -> int:
    outputs = [args.out_dir / name for name in _TRAIN_OUTPUTS]
    report_path = [] if args.weighting_report is None else [args.weighting_report]
    _claim(args, outputs + report_path, "manifest")
    train_path, val_path = outputs[2:]
    t = _train_config(args)
    model_cfg = _model_config(args)
    data = _training_set(args, t)
    fit = partial(trainer_mod.train, data, model_cfg, t, augment=not args.no_augment)
    model, log = fit(uniform=args.uniform_loss)
    if args.weighting_report is not None:  # a failing twin must find --out-dir untouched
        _, twin_log = fit(uniform=not args.uniform_loss)
        logs = (twin_log, log) if args.uniform_loss else (log, twin_log)
        report = trainer_mod.compare_weighting(data, *logs)
    _save_training(args, f"{t.epochs} epochs", model, log, *_TRAIN_OUTPUTS[:2])
    synth_mod.save_manifest(data.train, train_path)
    synth_mod.save_manifest(data.val, val_path)
    if args.weighting_report is not None:
        _write_text(args.weighting_report, json.dumps(report, indent=2) + "\n")
    return 0


_ORIENT_TRAIN_OUTPUTS = ("orient_checkpoint.bin", "orient_trainlog.csv")


def _cmd_orient_train(args) -> int:
    outputs = [args.out_dir / name for name in _ORIENT_TRAIN_OUTPUTS]
    _claim(args, outputs, "manifest")
    t, model_cfg = _train_config(args), _model_config(args)
    model, log = orient_mod.train_orient(_training_set(args, t), model_cfg, t)
    _save_training(args, "pose model", model, log, *_ORIENT_TRAIN_OUTPUTS)
    return 0


def _basenames(paths) -> list[str]:
    """The file names that outputs are keyed by; they must be unique."""
    names = [Path(p).name for p in paths]
    dupes = sorted(name for name, n in Counter(names).items() if n > 1)
    if dupes:
        raise ValueError(f"duplicate input basenames: {', '.join(dupes)}")
    return names


def _cmd_orient(args) -> int:
    names = _basenames(args.inputs)
    index = args.out_dir / "orientation.csv"
    _claim(args, [*(args.out_dir / name for name in names), index], "checkpoint")
    model = ckpt_io.load_model(args.checkpoint)
    if model.config.num_classes != 4:
        raise ValueError(
            f"checkpoint {args.checkpoint}: a pose model has 4 output classes, "
            f"this one has {model.config.num_classes}"
        )
    images = load_pgms(args.inputs, model.config.input_size)
    results = orient_mod.correct_orientation(model, images)
    index.unlink(missing_ok=True)  # as in _cmd_synth
    rows = []
    for name, (corrected, detected, confidence) in zip(names, results):
        save_pgm(corrected, args.out_dir / name)
        rows.append([name, detected, f"{confidence:.6f}"])
    text = fileio.csv_text(["path", "detected_turns", "confidence"], rows)
    _write_text(index, text)
    print(f"corrected {len(args.inputs)} image(s) -> {args.out_dir}")
    return 0


def _predict_paths(args) -> list:
    if args.manifest is not None:
        if args.inputs:
            raise ValueError("give --manifest or image paths, not both")
        manifest = _load_manifest(args.manifest)
        return [manifest.resolve(e) for e in manifest.entries]
    if not args.inputs:
        raise ValueError("provide --manifest or image paths")
    return list(args.inputs)


def _predictions_header(num_classes: int) -> list[str]:
    return ["path", "predicted"] + [f"score_{i}" for i in range(num_classes)]


def _predictions_to_csv(names: list[str], scores: np.ndarray) -> str:
    return fileio.csv_text(
        _predictions_header(scores.shape[1]),
        ([name, int(row.argmax())] + [f"{v:.6f}" for v in row] for name, row in zip(names, scores)),
    )


def _cmd_predict(args) -> int:
    output = args.out_dir / "predictions.csv"
    _claim(args, [output], "checkpoint", "manifest", "inputs")
    model = ckpt_io.load_model(args.checkpoint)
    paths = _predict_paths(args)
    names = _basenames(paths)
    scores = model.predict(load_pgms(paths, model.config.input_size))
    _write_text(output, _predictions_to_csv(names, scores))
    print(f"predicted {len(paths)} image(s) -> {output}")
    return 0


class PredictionsError(ValueError):
    """Raised for a predictions CSV that is not in the layout `predict` writes."""


_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")


def _read_predictions(path: Path) -> dict[str, np.ndarray]:
    """Name -> score row of a predictions CSV: ASCII, the header
    path,predicted,score_0..score_{C-1}, then one row per image with a
    predicted class in 0..C-1 and C plain decimal scores."""
    text = fileio.read_ascii(path, PredictionsError, str(path))
    records = list(fileio.csv_records(text, PredictionsError, str(path)))
    header = records[0][1] if records else []
    c = len(header) - 2
    if c < 1 or header != _predictions_header(c):
        raise PredictionsError(f"{path}: expected a '{','.join(_predictions_header(1))},...' header")
    if len(records) == 1:
        raise PredictionsError(f"{path}: no prediction rows")
    classes = [str(i) for i in range(c)]
    by_name = {}
    for line, row in records[1:]:
        if not row:
            raise PredictionsError(f"{path}: blank line {line}")
        if row[0] in by_name:
            raise PredictionsError(f"{path}: duplicate prediction rows for {row[0]!r}")
        if (
            len(row) != c + 2
            or not row[0]
            or row[1] not in classes
            or not all(_DECIMAL.fullmatch(v) for v in row[2:])
        ):
            raise PredictionsError(
                f"{path} line {line}: expected a name, a class in 0..{c - 1} and {c} decimal scores"
            )
        scores = np.array([float(v) for v in row[2:]], dtype=np.float64)
        if not np.isfinite(scores).all():
            raise PredictionsError(f"{path} line {line}: a score is too large")
        by_name[row[0]] = scores
    return by_name


def _cmd_eval(args) -> int:
    if (args.checkpoint is None) == (args.predictions is None):
        raise ValueError("provide exactly one of --checkpoint or --predictions")
    # the report and the curves there now: a curve not there yet is no input
    replaced = [args.out_dir / "eval_report.json"]
    replaced += (p for p in args.out_dir.glob("roc_class*.csv")
                 if re.fullmatch(r"roc_class[0-9]+\.csv", p.name))
    _claim(args, replaced, "manifest", "predictions", "checkpoint")
    manifest = _load_manifest(args.manifest)
    labels = manifest.labels()
    if args.checkpoint is not None:
        model = ckpt_io.load_model(args.checkpoint)
        source, num_classes = f"checkpoint {args.checkpoint}", model.config.num_classes
    else:
        by_name = _read_predictions(args.predictions)
        names = _basenames(e.path for e in manifest.entries)
        try:
            scores = np.stack([by_name[name] for name in names])
        except KeyError as exc:
            raise ValueError(f"predictions missing manifest entry {exc}") from None
        source, num_classes = f"predictions {args.predictions}", scores.shape[1]
    outside = np.flatnonzero(labels >= num_classes)
    if outside.size:
        raise ValueError(
            f"manifest {args.manifest} has class {labels[outside[0]]}, "
            f"outside the classes 0..{num_classes - 1} of {source}"
        )
    if args.checkpoint is not None:
        scores = model.predict(trainer_mod.load_image_array(manifest, model.config.input_size))
    report = metrics_mod.build_report(labels, scores)
    index = report.to_json()
    # the report indexes the curves: it goes first with any old curve, comes back last
    for path in replaced:
        path.unlink(missing_ok=True)
    for c, curve in enumerate(report.roc_curves):
        if curve is not None:  # no curve for a class with no positives or no negatives
            _write_text(args.out_dir / f"roc_class{c}.csv", metrics_mod.roc_to_csv(curve))
    _write_text(args.out_dir / "eval_report.json", index)
    print(metrics_mod.render_per_class_table(report), end="")
    macro = "undefined" if report.macro_auc is None else f"{report.macro_auc:.4f}"
    undefined = [str(c) for c, auc in enumerate(report.per_class_auc) if auc is None]
    if undefined:
        macro += f"; no AUC for class {', '.join(undefined)}"
    print(f"accuracy {report.accuracy:.4f}, macro AUC {macro}")
    return 0


def _read_report(path: Path) -> metrics_mod.EvalReport:
    """The eval report JSON at path; a ReportError names the file."""
    text = fileio.read_ascii(path, metrics_mod.ReportError, f"eval report {path}")
    try:
        return metrics_mod.EvalReport.from_json(text)
    except metrics_mod.ReportError as exc:
        raise metrics_mod.ReportError(f"eval report {path}: {exc}") from None


def _cmd_report(args) -> int:
    output = args.out_dir / "comparison.csv"
    _claim(args, [output], "model", "annotators")
    model_report = _read_report(args.model)
    annotators = [_read_report(p) for p in args.annotators]
    rows = metrics_mod.compare_report(
        model_report, annotators, model_name=args.model_name, annotators_name=args.annotators_name
    )
    text = metrics_mod.comparison_to_csv(rows)
    _write_text(output, text)
    print(text, end="")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "enhance": _cmd_enhance,
    "cluster": _cmd_cluster,
    "train": _cmd_train,
    "orient-train": _cmd_orient_train,
    "orient": _cmd_orient,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    _print_config(args)
    try:
        with fileio.one_write_per_path():
            return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
