import argparse
import contextlib
import io
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_image, random_image
import dxpipe
from dxpipe import cli, enhance, fileio, nnet, synth, trainer
from dxpipe.checkpoint import save_model
from dxpipe.cli import PredictionsError, _predictions_to_csv, _read_predictions, run
from dxpipe.enhance import MAX_MEDIAN_RADIUS
from dxpipe.image import load_pgm, save_pgm
from dxpipe.metrics import EvalReport, build_report
from dxpipe.nnet import FusionNet, ModelConfig
from dxpipe.synth import MAX_IMAGE_SIZE, load_manifest
from test_metrics import _REPORT_TOKENS
from test_synth import _MANIFEST_TOKENS


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_deterministic_trees(tmp_path, capsys):
    for name in ("a", "b"):
        assert run(["--seed", "7", "--out-dir", str(tmp_path / name), "synth", "--scale", "0.02"]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    out = capsys.readouterr().out
    assert "config:" in out  # effective config echoed


def test_synth_amplify_adds_equalized_copies(tmp_path):
    # exit 0 under the one-write-per-path rule: manifest.csv is written once
    assert run(["--out-dir", str(tmp_path), "synth", "--scale", "0.02", "--amplify"]) == 0
    copies = sorted(p.name for p in tmp_path.glob("*_he.pgm"))
    assert copies
    listed = [e.path for e in load_manifest(tmp_path / "manifest.csv").entries]
    assert sorted(name for name in listed if name.endswith("_he.pgm")) == copies


def test_enhance_constant_image_unchanged(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    img = constant_image(32, 32, 50)
    save_pgm(img, src / "c.pgm")
    out = tmp_path / "out"
    assert run(["--out-dir", str(out), "enhance", str(src / "c.pgm"), "--tiles", "4", "4"]) == 0
    assert (out / "c.pgm").read_bytes() == (src / "c.pgm").read_bytes()


def test_enhance_directory_and_stage_flag(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    rng = np.random.default_rng(0)
    for i in range(3):
        from conftest import random_image

        save_pgm(random_image(rng, 20, 20), src / f"i{i}.pgm")
    out = tmp_path / "out"
    assert run(["--out-dir", str(out), "enhance", str(src), "--stage", "median"]) == 0
    assert len(list(out.glob("*.pgm"))) == 3


def test_enhance_missing_input_fails(tmp_path):
    assert run(["--out-dir", str(tmp_path), "enhance", str(tmp_path / "nope.pgm")]) == 1


def test_cluster_outputs(tmp_path):
    data = tmp_path / "data"
    assert run(["--out-dir", str(data), "synth", "--scale", "0.02"]) == 0
    out = tmp_path / "cl"
    assert run(["--out-dir", str(out), "cluster", "--manifest", str(data / "manifest.csv"), "--k", "3"]) == 0
    assert (out / "clusters.csv").exists()
    assert (out / "contingency.csv").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--bogus-flag", "1"],
    # pose training draws every turn of every image: the flag would do nothing
    ["orient-train", "--no-augment", "--manifest", "manifest.csv"],
], ids=["synth", "orient-train"])
def test_unknown_flag_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(["--out-dir", str(tmp_path / "run")] + argv)
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Small end-to-end train for the predict/eval/orient subcommand tests."""
    root = tmp_path_factory.mktemp("cli_train")
    data = root / "data"
    assert run(["--seed", "5", "--out-dir", str(data), "synth", "--scale", "0.06"]) == 0
    out = root / "run"
    assert (
        run(
            ["--seed", "5", "--out-dir", str(out), "train",
             "--manifest", str(data / "manifest.csv"), "--epochs", "3"]
        )
        == 0
    )
    return data, out


def test_train_outputs(trained):
    _, out = trained
    assert (out / "checkpoint.bin").exists()
    assert (out / "trainlog.csv").exists()
    assert (out / "train_manifest.csv").exists()
    assert (out / "val_manifest.csv").exists()
    header = (out / "trainlog.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_loss,val_acc,lr"


def test_predict_scores_sum_to_one(trained, tmp_path):
    data, out = trained
    pred_dir = tmp_path / "pred"
    assert (
        run(
            ["--out-dir", str(pred_dir), "predict",
             "--checkpoint", str(out / "checkpoint.bin"),
             "--manifest", str(out / "val_manifest.csv")]
        )
        == 0
    )
    lines = (pred_dir / "predictions.csv").read_text().strip().splitlines()
    assert lines[0].startswith("path,predicted,score_0")
    for line in lines[1:]:
        scores = [float(v) for v in line.split(",")[2:]]
        assert abs(sum(scores) - 1.0) < 1e-5


def test_eval_report_and_roc_files(trained, tmp_path):
    data, out = trained
    eval_dir = tmp_path / "ev"
    assert (
        run(
            ["--out-dir", str(eval_dir), "eval",
             "--checkpoint", str(out / "checkpoint.bin"),
             "--manifest", str(out / "val_manifest.csv")]
        )
        == 0
    )
    report = EvalReport.from_json((eval_dir / "eval_report.json").read_text())
    assert report.num_classes == 6
    assert report.macro_auc is not None
    for c in range(6):
        assert (eval_dir / f"roc_class{c}.csv").exists()


def test_eval_from_predictions_matches_checkpoint_eval(trained, tmp_path):
    data, out = trained
    pred_dir = tmp_path / "pred"
    assert (
        run(
            ["--out-dir", str(pred_dir), "predict",
             "--checkpoint", str(out / "checkpoint.bin"),
             "--manifest", str(out / "val_manifest.csv")]
        )
        == 0
    )
    from_preds = tmp_path / "ev_pred"
    assert (
        run(
            ["--out-dir", str(from_preds), "eval",
             "--predictions", str(pred_dir / "predictions.csv"),
             "--manifest", str(out / "val_manifest.csv")]
        )
        == 0
    )
    from_ckpt = tmp_path / "ev_ckpt"
    assert (
        run(
            ["--out-dir", str(from_ckpt), "eval",
             "--checkpoint", str(out / "checkpoint.bin"),
             "--manifest", str(out / "val_manifest.csv")]
        )
        == 0
    )
    a = EvalReport.from_json((from_preds / "eval_report.json").read_text())
    b = EvalReport.from_json((from_ckpt / "eval_report.json").read_text())
    assert a.confusion == b.confusion
    assert a.accuracy == b.accuracy
    # AUC from 6-decimal CSV scores agrees closely with the in-memory scores
    assert abs(a.macro_auc - b.macro_auc) < 1e-3


def test_eval_requires_exactly_one_source(trained, tmp_path):
    data, out = trained
    assert (
        run(["--out-dir", str(tmp_path), "eval", "--manifest", str(out / "val_manifest.csv")]) == 1
    )


def test_eval_deterministic(trained, tmp_path):
    data, out = trained
    a, b = tmp_path / "ea", tmp_path / "eb"
    for d in (a, b):
        assert (
            run(
                ["--out-dir", str(d), "eval",
                 "--checkpoint", str(out / "checkpoint.bin"),
                 "--manifest", str(out / "val_manifest.csv")]
            )
            == 0
        )
    assert tree_bytes(a) == tree_bytes(b)


def test_orient_train_and_correct(trained, tmp_path):
    data, _ = trained
    orient_dir = tmp_path / "orient"
    assert (
        run(
            ["--seed", "5", "--out-dir", str(orient_dir), "orient-train",
             "--manifest", str(data / "manifest.csv"), "--epochs", "2"]
        )
        == 0
    )
    ckpt = orient_dir / "orient_checkpoint.bin"
    assert ckpt.exists()
    some_image = next(data.glob("*.pgm"))
    fixed_dir = tmp_path / "fixed"
    assert run(["--out-dir", str(fixed_dir), "orient", "--checkpoint", str(ckpt), str(some_image)]) == 0
    assert (fixed_dir / some_image.name).exists()
    lines = (fixed_dir / "orientation.csv").read_text().strip().splitlines()
    assert lines[0] == "path,detected_turns,confidence"
    turns, conf = lines[1].split(",")[1:]
    assert int(turns) in (0, 1, 2, 3)
    assert 0.0 <= float(conf) <= 1.0


def test_report_verbatim_rows(tmp_path):
    def report_json(acc, bp, spec):
        # a six-class report in eval's layout, with the three summary figures set
        report = build_report(list(range(6)), list(range(6)), 6)
        return replace(report, accuracy=acc, balanced_precision=bp,
                       weighted_specificity=spec).to_json()

    model = tmp_path / "model.json"
    doctors = tmp_path / "doctors.json"
    model.write_text(report_json(0.87, 0.88, 0.87))
    doctors.write_text(report_json(0.85, 0.87, 0.85))
    out = tmp_path / "cmp"
    assert (
        run(
            ["--out-dir", str(out), "report", "--model", str(model),
             "--model-name", "fusion-cnn", "--annotators", str(doctors),
             "--annotators-name", "doctors"]
        )
        == 0
    )
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert lines[1] == "doctors,0.85,0.87,0.85"
    assert lines[2] == "fusion-cnn,0.87,0.88,0.87"


@pytest.mark.parametrize("model, annotator, message", [
    ("[1, 2]", None, "model.json: expected an object with keys num_classes, total,"),
    (None, '{"accuracy": "x"}', "ann.json: expected an object with keys"),
    (None, "accuracy", "ann.json: not JSON: Expecting value"),
    (None, "\xff", "ann.json: not ASCII text"),
])
def test_report_names_the_file_it_refuses(tmp_path, capsys, model, annotator, message):
    good = build_report([0, 1], [0, 1], 2).to_json()
    (tmp_path / "model.json").write_text(model or good, encoding="latin-1")
    (tmp_path / "ann.json").write_text(annotator or good, encoding="latin-1")
    capsys.readouterr()
    argv = ["--out-dir", str(tmp_path / "cmp"), "report", "--model", str(tmp_path / "model.json"),
            "--annotators", str(tmp_path / "ann.json")]
    assert run(argv) == 1
    assert _one_error_line(capsys).startswith(f"error: eval report {tmp_path / message}")
    assert not (tmp_path / "cmp").exists()


def test_report_names_the_field_it_refuses(tmp_path, capsys):
    d = json.loads(build_report([0, 1], [0, 1], 2).to_json())
    d["accuracy"] = "x"
    (tmp_path / "a.json").write_text(json.dumps(d))
    capsys.readouterr()
    argv = ["--out-dir", str(tmp_path / "cmp"), "report", "--model", str(tmp_path / "a.json")]
    assert run(argv) == 1
    assert _one_error_line(capsys) == (
        f"error: eval report {tmp_path / 'a.json'}: field accuracy: expected a finite number\n"
    )


def test_missing_checkpoint_fails_cleanly(tmp_path, capsys):
    code = run(["--out-dir", str(tmp_path), "predict", "--checkpoint", str(tmp_path / "no.bin")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def standalone_reports(trained):
    """The weighting report of in-process trainings, by augment setting."""
    data, _ = trained
    t = trainer.TrainConfig(epochs=2, seed=5)
    ts = trainer.training_set(load_manifest(data / "manifest.csv"), t)
    reports = {}
    for augment in (True, False):
        _, weighted = trainer.train(ts, ModelConfig(), t, augment=augment)
        _, uniform = trainer.train(ts, ModelConfig(), t, uniform=True, augment=augment)
        reports[augment] = trainer.compare_weighting(ts, weighted, uniform)
    return reports


@pytest.mark.parametrize("augment", [True, False])
@pytest.mark.parametrize("uniform", [False, True])
def test_weighting_report_trains_each_mode_once(
    trained, standalone_reports, tmp_path, monkeypatch, uniform, augment
):
    data, _ = trained
    calls = []
    real_train = trainer.train

    def counting_train(*args, **kwargs):
        calls.append((kwargs["uniform"], kwargs["augment"]))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(trainer, "train", counting_train)
    report = tmp_path / "weighting.json"
    argv = ["--seed", "5", "--out-dir", str(tmp_path / "run"), "train",
            "--manifest", str(data / "manifest.csv"), "--epochs", "2",
            "--weighting-report", str(report)]
    flags = (["--uniform-loss"] if uniform else []) + ([] if augment else ["--no-augment"])
    assert run(argv + flags) == 0
    # one training per weighting mode, the twin with the same augmentation
    assert sorted(calls) == [(False, augment), (True, augment)]
    assert json.loads(report.read_text()) == standalone_reports[augment]


def _two_same_named_images(root):
    paths = []
    for sub, value in (("d1", 10), ("d2", 200)):
        (root / sub).mkdir()
        paths.append(root / sub / "x.pgm")
        save_pgm(constant_image(32, 32, value), paths[-1])
    return paths


def test_orient_rejects_duplicate_basenames(tmp_path, capsys):
    ckpt = tmp_path / "pose.bin"
    save_model(FusionNet(ModelConfig(num_classes=4), seed=0), ckpt)
    inputs = [str(p) for p in _two_same_named_images(tmp_path)]
    out = tmp_path / "fixed"
    assert run(["--out-dir", str(out), "orient", "--checkpoint", str(ckpt)] + inputs) == 1
    assert "error: duplicate input basenames: x.pgm" in capsys.readouterr().err
    assert not out.exists()


def test_orient_rejects_input_named_like_its_results_file(tmp_path, capsys):
    # the corrected copy of in/orientation.csv would be overwritten by the CSV
    ckpt = tmp_path / "pose.bin"
    save_model(FusionNet(ModelConfig(num_classes=4), seed=0), ckpt)
    (tmp_path / "in").mkdir()
    named = tmp_path / "in" / "orientation.csv"
    save_pgm(constant_image(32, 32, 10), named)
    other = tmp_path / "x.pgm"
    save_pgm(constant_image(32, 32, 200), other)
    out = tmp_path / "fixed"
    code = run(["--out-dir", str(out), "orient", "--checkpoint", str(ckpt), str(named), str(other)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {out}/orientation.csv is written twice by one command\n"
    assert not out.exists()


def test_predict_rejects_duplicate_basenames(trained, tmp_path, capsys):
    _, out = trained
    d1, d2 = _two_same_named_images(tmp_path)
    manifest = tmp_path / "m.csv"
    manifest.write_text("# seed=0\npath,class_id,rotation\nd1/x.pgm,0,0\nd2/x.pgm,1,0\n")
    pred_dir = tmp_path / "pred"
    base = ["--out-dir", str(pred_dir), "predict", "--checkpoint", str(out / "checkpoint.bin")]
    for extra in ([str(d1), str(d2)], ["--manifest", str(manifest)]):
        assert run(base + extra) == 1
        assert "error: duplicate input basenames: x.pgm" in capsys.readouterr().err
    assert not pred_dir.exists()


@pytest.mark.parametrize("bad, message", [
    (lambda lines: lines + [lines[1]], "duplicate prediction rows"),
    (lambda lines: lines[:2] + [""] + lines[2:], "blank line 3"),
])
def test_eval_rejects_malformed_prediction_rows(trained, tmp_path, capsys, bad, message):
    _, out = trained
    pred_dir = tmp_path / "pred"
    val = str(out / "val_manifest.csv")
    assert run(["--out-dir", str(pred_dir), "predict", "--checkpoint", str(out / "checkpoint.bin"),
                "--manifest", val]) == 0
    preds = pred_dir / "predictions.csv"
    preds.write_text("\n".join(bad(preds.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "ev"), "eval", "--predictions", str(preds),
                "--manifest", val]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "path,predicted,score_0\n"])
def test_eval_rejects_empty_predictions(trained, tmp_path, capsys, text):
    _, out = trained
    preds = tmp_path / "predictions.csv"
    preds.write_text(text)
    assert run(["--out-dir", str(tmp_path / "ev"), "eval", "--predictions", str(preds),
                "--manifest", str(out / "val_manifest.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_predict_rejects_manifest_with_image_paths(trained, tmp_path, capsys):
    data, out = trained
    image = sorted(data.glob("*.pgm"))[0]
    pred_dir = tmp_path / "pred"
    code = run(["--out-dir", str(pred_dir), "predict", "--checkpoint", str(out / "checkpoint.bin"),
                "--manifest", str(out / "val_manifest.csv"), str(image)])
    assert code == 1
    assert "error: give --manifest or image paths, not both" in capsys.readouterr().err
    assert not pred_dir.exists()


def test_diverging_train_fails_cleanly(tmp_path, capsys, recwarn):
    data = tmp_path / "data"
    assert run(["--out-dir", str(data), "synth", "--scale", "0.02"]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    code = run(["--out-dir", str(out), "train", "--manifest", str(data / "manifest.csv"),
                "--epochs", "1", "--batch-size", "4", "--lr", "1e6"])
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: epoch 0 batch \d+: non-finite values in \S+$", err, re.M)
    # the error line is all that reaches stderr: numpy's overflow warnings,
    # which pytest would otherwise take out of stderr, are not raised
    assert err.count("\n") == 1
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


def test_rerun_into_a_used_out_dir_gives_the_same_tree(tmp_path):
    data = tmp_path / "data"
    assert run(["--seed", "3", "--out-dir", str(data), "synth", "--scale", "0.02"]) == 0
    commands = [
        ["enhance", str(data)],
        ["train", "--manifest", str(data / "manifest.csv"), "--epochs", "1"],
        ["eval", "--checkpoint", str(tmp_path / "train" / "checkpoint.bin"),
         "--manifest", str(tmp_path / "train" / "val_manifest.csv")],
    ]
    for argv in commands:
        out = tmp_path / argv[0]
        assert run(["--seed", "3", "--out-dir", str(out)] + argv) == 0
        first = tree_bytes(out)
        assert run(["--seed", "3", "--out-dir", str(out)] + argv) == 0
        assert tree_bytes(out) == first
    assert list(tmp_path.rglob("*.tmp")) == []


def _refuse_training(monkeypatch):
    def no_train(*args, **kwargs):
        raise AssertionError("trainer.train called before the report path was checked")

    monkeypatch.setattr(trainer, "train", no_train)


def test_weighting_report_onto_the_trainlog_is_refused(trained, tmp_path, capsys, monkeypatch):
    data, _ = trained
    out = tmp_path / "run"
    _refuse_training(monkeypatch)
    capsys.readouterr()
    code = run(["--seed", "5", "--out-dir", str(out), "train", "--manifest",
                str(data / "manifest.csv"), "--epochs", "1",
                "--weighting-report", str(out / "trainlog.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(r"error: \S*trainlog\.csv is written twice by one command\n", err)
    assert not out.exists()


@pytest.mark.parametrize(
    "report", ["checkpoint.bin", "train_manifest.csv", "val_manifest.csv", "sub/../trainlog.csv"]
)
def test_weighting_report_onto_any_train_output_is_refused_before_training(
    trained, tmp_path, capsys, monkeypatch, report
):
    data, _ = trained
    out = tmp_path / "run"
    out.mkdir()
    (out / "link").symlink_to(out)
    _refuse_training(monkeypatch)
    for path in (out / report, out / "link" / report):
        capsys.readouterr()
        code = run(["--out-dir", str(out), "train", "--manifest", str(data / "manifest.csv"),
                    "--weighting-report", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path} is written twice by one command\n"
    assert sorted(p.name for p in out.iterdir()) == ["link"]


def _fail_on_call(monkeypatch, module, name, n, exc):
    """Make module.name raise exc from its n-th call on; earlier calls run it."""
    real, calls = getattr(module, name), []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) >= n:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


def test_a_failing_weighting_twin_leaves_the_train_out_dir_as_it_was(
    trained, tmp_path, capsys, monkeypatch
):
    data, _ = trained
    out = tmp_path / "run"

    def train_seed(seed):
        return run(["--seed", seed, "--out-dir", str(out), "train", "--manifest",
                    str(data / "manifest.csv"), "--epochs", "1",
                    "--weighting-report", str(out / "weighting.json")])

    assert train_seed("1") == 0
    before = tree_bytes(out)
    assert sorted(before) == sorted(["weighting.json", *cli._TRAIN_OUTPUTS])
    _fail_on_call(monkeypatch, trainer, "train", 2, FloatingPointError("epoch 0 batch 0: diverged"))
    capsys.readouterr()
    assert train_seed("2") == 1
    assert _one_error_line(capsys) == "error: epoch 0 batch 0: diverged\n"
    assert tree_bytes(out) == before


def test_a_failing_synth_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    argv = ["--out-dir", str(tmp_path), "synth", "--scale", "0.02"]
    assert run(["--seed", "1", *argv]) == 0
    _fail_on_call(monkeypatch, synth, "save_pgm", 3, OSError("disk full"))
    capsys.readouterr()
    assert run(["--seed", "2", *argv]) == 1
    assert _one_error_line(capsys) == "error: disk full\n"
    assert not (tmp_path / "manifest.csv").exists()


def test_a_failing_orient_leaves_no_orientation_csv(trained, tmp_path, capsys, monkeypatch):
    data, _ = trained
    argv = ["--out-dir", str(tmp_path / "fixed"), "orient", "--checkpoint",
            str(_checkpoint(tmp_path, 4)), *map(str, sorted(data.glob("*.pgm"))[:3])]
    assert run(argv) == 0
    assert (tmp_path / "fixed" / "orientation.csv").exists()
    _fail_on_call(monkeypatch, cli, "save_pgm", 2, OSError("disk full"))
    capsys.readouterr()
    assert run(argv) == 1
    assert _one_error_line(capsys) == "error: disk full\n"
    assert not (tmp_path / "fixed" / "orientation.csv").exists()


def _eval_predictions_case(root, out):
    """argv of eval runs into out of one predictions file against a manifest
    of classes 0..5 (six ROC curves) and against one of classes 0 and 1
    only (two); the inputs are written under root."""
    rows = [(f"i{c}_{k}.pgm", c) for c in range(6) for k in range(2)]
    scores = np.random.default_rng(0).dirichlet(np.ones(6), size=len(rows))
    preds = root / "predictions.csv"
    preds.write_text(_predictions_to_csv([name for name, _ in rows], scores))
    argvs = []
    for n_classes in (6, 2):
        manifest = root / f"m{n_classes}.csv"
        manifest.write_text("# seed=0\npath,class_id,rotation\n" + "".join(
            f"{name},{c},0\n" for name, c in rows if c < n_classes))
        argvs.append(["--out-dir", str(out), "eval", "--predictions", str(preds),
                      "--manifest", str(manifest)])
    return argvs


def test_eval_into_a_used_out_dir_leaves_no_stale_roc_curve(tmp_path):
    ev = tmp_path / "ev"
    every_class, two_classes = _eval_predictions_case(tmp_path, ev)
    assert run(every_class) == 0
    assert len(list(ev.glob("roc_class*.csv"))) == 6
    (ev / "roc_class_notes.csv").write_text("not a curve\n")
    assert run(two_classes) == 0
    assert sorted(p.name for p in ev.iterdir()) == [
        "eval_report.json", "roc_class0.csv", "roc_class1.csv", "roc_class_notes.csv"]
    assert json.loads((ev / "eval_report.json").read_text())["per_class_auc"][2:] == [None] * 4


@pytest.mark.parametrize("flag, name", [
    ("--predictions", "roc_class9.csv"),
    ("--manifest", "eval_report.json"),
    ("--checkpoint", "roc_class0.csv"),
])
def test_eval_refuses_an_input_that_it_replaces(trained, tmp_path, capsys, flag, name):
    _, out = trained
    ev = tmp_path / "ev"
    ev.mkdir()
    if flag == "--checkpoint":
        argv = ["--out-dir", str(ev), "eval", "--checkpoint", str(out / "checkpoint.bin"),
                "--manifest", str(out / "val_manifest.csv")]
    else:  # the --manifest case spells --out-dir another way
        argv = _eval_predictions_case(tmp_path, ev if flag == "--predictions" else ev / ".." / "ev")[0]
    at = argv.index(flag) + 1
    target = ev / name
    target.write_bytes(Path(argv[at]).read_bytes())
    given = target
    if flag == "--checkpoint":  # a link outside --out-dir to the file inside it
        given = tmp_path / "link.bin"
        given.symlink_to(target)
    argv[at] = str(given)
    before = target.read_bytes()
    capsys.readouterr()
    assert run(argv) == 1
    assert _one_error_line(capsys) == (
        f"error: {flag} {given} is a file that eval replaces\n"
    )
    assert [p.name for p in ev.iterdir()] == [name]
    assert target.read_bytes() == before


def _output_set(root) -> dict:
    """root's files by name; a temporary file a killed write left is no output."""
    return {p.name: p.read_bytes() for p in root.iterdir()
            if not (p.name.startswith(".") and p.name.endswith(".tmp"))}


def _cli_env() -> dict:
    """The environment of a `python -m dxpipe.cli` subprocess of this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(dxpipe.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def _kill_at(argv, index: Path, delay: float) -> int:
    """Run the CLI with argv in a subprocess; once its old index is gone,
    that is once it has begun writing, wait delay seconds and SIGKILL it.
    Returns its exit status."""
    proc = subprocess.Popen([sys.executable, "-m", "dxpipe.cli", *argv], env=_cli_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        while proc.poll() is None and index.exists():
            time.sleep(0.0005)
        time.sleep(delay)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait()
    return proc.returncode


def _two_runs(command, root, out, data):
    """argv of two runs of command into out that write one set of file
    names with other bytes; their inputs are made under root."""
    if command == "synth":
        return [["--seed", seed, "--out-dir", str(out), "synth", "--scale", "0.02",
                 "--image-size", "64"] for seed in ("1", "2")]
    if command == "orient":
        images = [str(p) for p in sorted(data.glob("*.pgm"))[:40]]
        argvs = []
        for seed in (0, 3):
            path = root / f"pose{seed}.bin"
            save_model(FusionNet(ModelConfig(num_classes=4), seed=seed), path)
            argvs.append(["--out-dir", str(out), "orient", "--checkpoint", str(path), *images])
        return argvs
    return _eval_predictions_case(root, out)


@pytest.mark.parametrize("command, index", [
    ("synth", "manifest.csv"), ("orient", "orientation.csv"), ("eval", "eval_report.json")])
def test_a_killed_command_leaves_the_old_set_the_new_set_or_no_index(
    trained, tmp_path, command, index
):
    """SIGKILL at two delays after a command into a used out-dir has begun
    writing (on a 2-core host, 0 s mostly lands mid-set for each command and
    0.02 s does for synth; a run that finished first must pass too): the
    out-dir then holds the old set, the new set, or a set without its index,
    each of whose files is the old or the new one."""
    data, _ = trained
    out = tmp_path / "out"
    old, new = _two_runs(command, tmp_path, out, data)
    assert run(_two_runs(command, tmp_path, tmp_path / "fresh", data)[1]) == 0
    new_set = _output_set(tmp_path / "fresh")
    for delay in (0.0, 0.02):
        assert run(old) == 0
        old_set = _output_set(out)
        assert old_set[index] != new_set[index]
        assert _kill_at(new, out / index, delay) in (0, -signal.SIGKILL)
        left = _output_set(out)
        if index in left:
            assert left in (old_set, new_set)
        else:
            assert all(left[name] in (old_set.get(name), new_set.get(name)) for name in left)
        for p in out.iterdir():
            p.unlink()


_PREDICTIONS_SAMPLE = (b"path,predicted,score_0,score_1\n"
                       b"a.pgm,1,0.250000,0.750000\n\"b,c.pgm\",0,1.000000,0.000000\n")
_PREDICTIONS_TOKENS = [b"", b",", b"\n", b"\r\n", b"\r", b'"', b"-", b"+", b"_", b".", b"e5", b"nan",
                       b"inf", b"0", b"1", b"2", b"\xff", b"\x00", b"score_2"]


def _read_prediction_bytes(root, data: bytes) -> None:
    """_read_predictions either raises PredictionsError or returns finite
    score rows of one width, which write back and read again unchanged."""
    path = root / "fuzz_predictions.csv"
    path.write_bytes(data)
    try:
        by_name = _read_predictions(path)
    except PredictionsError:
        return
    scores = np.stack(list(by_name.values()))
    assert scores.shape[1] >= 1 and np.isfinite(scores).all()
    path.write_text(_predictions_to_csv(list(by_name), scores))
    again = _read_predictions(path)
    assert list(again) == list(by_name)
    assert [list(row) for row in again.values()] == [[float(f"{v:.6f}") for v in row] for row in scores]


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=60) | st.sampled_from([_PREDICTIONS_SAMPLE]))
def test_any_bytes_read_as_predictions_or_raise_predictions_error(tmp_path_factory, data):
    _read_prediction_bytes(tmp_path_factory.getbasetemp(), data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_predictions_read_or_raise_predictions_error(tmp_path_factory, data):
    buf = bytearray(_PREDICTIONS_SAMPLE)
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(buf)))
        cut = data.draw(st.integers(0, 3))
        buf[i : i + cut] = data.draw(st.sampled_from(_PREDICTIONS_TOKENS) | st.binary(max_size=3))
    _read_prediction_bytes(tmp_path_factory.getbasetemp(), bytes(buf))


@settings(max_examples=100, deadline=None)
@given(
    names=st.lists(st.text(st.characters(min_codepoint=0x01, max_codepoint=0x7F), min_size=1,
                           max_size=12), min_size=1, max_size=8, unique=True),
    data=st.data(),
)
def test_predictions_write_then_read_round_trips_exactly(tmp_path_factory, names, data):
    c = data.draw(st.integers(1, 6))
    micro = data.draw(st.lists(st.integers(0, 10**6), min_size=len(names) * c,
                               max_size=len(names) * c))
    scores = np.array(micro, dtype=np.float64).reshape(len(names), c) / 1e6
    path = tmp_path_factory.getbasetemp() / "rt_predictions.csv"
    path.write_text(_predictions_to_csv(names, scores))
    by_name = _read_predictions(path)
    assert list(by_name) == names
    assert np.array_equal(np.stack(list(by_name.values())), scores)


def test_eval_reads_the_predictions_of_a_name_with_a_carriage_return(tmp_path, capsys):
    # minimal CSV quoting leaves a lone "\r" bare, and a reader ends the row there
    names = ["a\rb.pgm", "plain.pgm"]
    rng = np.random.default_rng(0)
    for name in names:
        save_pgm(random_image(rng, 32, 32), tmp_path / name)
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b'# seed=0\npath,class_id,rotation\n"a\rb.pgm",0,0\nplain.pgm,1,0\n')
    ckpt = str(_checkpoint(tmp_path))
    assert run(["--out-dir", str(tmp_path / "pred"), "predict", "--checkpoint", ckpt,
                *(str(tmp_path / name) for name in names)]) == 0
    preds = tmp_path / "pred" / "predictions.csv"
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "ev"), "eval", "--predictions", str(preds),
                "--manifest", str(manifest)]) == 0, capsys.readouterr().err
    assert list(_read_predictions(preds)) == names


@pytest.mark.parametrize("text", [
    "path,predicted,score_0\na.pgm,0,+1.0\n",
    "path,predicted,score_0\na.pgm,0,1_0\n",
    "path,predicted,score_0\na.pgm,0,nan\n",
    "path,predicted,score_0\na.pgm,0,1e5\n",
    "path,predicted,score_0\na.pgm,1,1.0\n",
    "path,predicted,score_0\na.pgm,0\n",
    "path,predicted,score_0\na.pgm,0,1.0,2.0\n",
    "path,predicted,score_1\na.pgm,0,1.0\n",
    "path,predicted\na.pgm,0\n",
    'path,predicted,score_0\n"a"b,0,1.0\n',
    "path,predicted,score_0\na.pgm,0,1.0\x00\n",
    "path,predicted,score_0\né.pgm,0,1.0\n",
])
def test_eval_refuses_a_predictions_file_predict_never_writes(tmp_path, capsys, text):
    manifest = tmp_path / "m.csv"
    manifest.write_text("# seed=0\npath,class_id,rotation\na.pgm,0,0\n")
    preds = tmp_path / "predictions.csv"
    preds.write_bytes(text.encode("utf-8"))
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "ev"), "eval", "--predictions", str(preds),
                "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("text", [
    "# seed=0\npath,class_id,rotation\na.pgm,7,0\n",
    "# seed=0\npath,class_id,rotation\na.pgm\n",
    "# seed=é\npath,class_id,rotation\n",
])
def test_a_malformed_manifest_is_one_error_line(tmp_path, capsys, text):
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(text.encode("utf-8"))
    assert run(["--out-dir", str(tmp_path / "out"), "cluster", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {manifest}") and err.count("\n") == 1


def test_an_overflowing_score_is_refused(tmp_path):
    preds = tmp_path / "predictions.csv"
    preds.write_text("path,predicted,score_0\na.pgm,0," + "9" * 400 + "\n")
    with pytest.raises(PredictionsError, match="line 2: a score is too large"):
        _read_predictions(preds)


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_eval_names_predictions_with_too_few_classes(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("# seed=0\npath,class_id,rotation\na.pgm,1,0\nb.pgm,3,0\nc.pgm,2,0\n")
    preds = tmp_path / "predictions.csv"
    preds.write_text(
        "path,predicted,score_0,score_1\n"
        + "".join(f"{n}.pgm,0,0.5,0.5\n" for n in "abc")
    )
    assert run(["--out-dir", str(tmp_path / "ev"), "eval", "--predictions", str(preds),
                "--manifest", str(manifest)]) == 1
    err = _one_error_line(capsys)
    assert f"manifest {manifest} has class 3," in err
    assert f"classes 0..1 of predictions {preds}" in err
    assert not (tmp_path / "ev").exists()


def test_eval_names_a_pose_checkpoint_on_a_region_manifest(trained, tmp_path, capsys):
    _, out = trained
    val = out / "val_manifest.csv"
    labels = [e.class_id for e in load_manifest(val).entries]
    first = next(c for c in labels if c >= 4)
    ckpt = tmp_path / "orient_checkpoint.bin"
    save_model(FusionNet(ModelConfig(num_classes=4), seed=0), ckpt)
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "ev"), "eval", "--checkpoint", str(ckpt),
                "--manifest", str(val)]) == 1
    err = _one_error_line(capsys)
    assert f"manifest {val} has class {first}," in err
    assert f"classes 0..3 of checkpoint {ckpt}" in err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("command", ["train", "orient-train"])
def test_training_on_an_empty_validation_split_is_one_error_line(tmp_path, capsys, command):
    # one image per class: no class can give the validation split an image.
    # The images do not exist, so reading any of them would fail differently.
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "# seed=0\npath,class_id,rotation\n" + "".join(f"{c}.pgm,{c},0\n" for c in range(6))
    )
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "run"), command, "--manifest", str(manifest)]) == 1
    err = _one_error_line(capsys)
    assert err == (
        f"error: manifest {manifest}: the validation split is empty "
        "(no class has 2 or more images)\n"
    )
    assert not (tmp_path / "run").exists()


def test_eval_on_a_subset_without_a_class_reports_its_auc_as_undefined(tmp_path, capsys):
    # classes 0 and 1 only, scored over three classes: class 2 has no positives
    manifest = tmp_path / "m.csv"
    manifest.write_text("# seed=0\npath,class_id,rotation\n"
                        "a.pgm,0,0\nb.pgm,1,0\nc.pgm,0,0\nd.pgm,1,0\n")
    preds = tmp_path / "predictions.csv"
    preds.write_text("path,predicted,score_0,score_1,score_2\n"
                     "a.pgm,0,0.700000,0.200000,0.100000\n"
                     "b.pgm,1,0.100000,0.600000,0.300000\n"
                     "c.pgm,1,0.300000,0.400000,0.300000\n"
                     "d.pgm,0,0.500000,0.300000,0.200000\n")
    ev = tmp_path / "ev"
    capsys.readouterr()
    assert run(["--out-dir", str(ev), "eval", "--predictions", str(preds),
                "--manifest", str(manifest)]) == 0
    report = json.loads((ev / "eval_report.json").read_text())
    assert report["per_class_auc"][2] is None and report["per_class"][2]["auc"] is None
    assert "auc" in report["per_class"][2]["undefined"]
    assert report["per_class_auc"][:2] == [0.75, 0.75]
    assert report["macro_auc"] == 0.75
    assert sorted(p.name for p in ev.glob("roc_class*.csv")) == ["roc_class0.csv", "roc_class1.csv"]
    out = capsys.readouterr().out
    assert out.endswith("accuracy 0.5000, macro AUC 0.7500; no AUC for class 2\n")


def _enhance_inputs(root, shapes, seed=3):
    """One random PGM per (name, shape), plus the arrays by name."""
    root.mkdir()
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in shapes:
        arrays[name] = rng.integers(0, 256, size=shape, dtype=np.uint8)
        save_pgm(arrays[name], root / name)
    return arrays


_STAGE_FUNCTIONS = {
    "chain": lambda img: enhance.enhance_chain(img, enhance.ClaheParams(1, 1, 1.5), 2),
    "sharpen": enhance.sharpen,
    "median": lambda img: enhance.median_filter(img, 2),
    "equalize": enhance.hist_equalize,
    "clahe": lambda img: enhance.clahe(img, enhance.ClaheParams(1, 1, 1.5)),
}


@pytest.mark.parametrize("stage", sorted(_STAGE_FUNCTIONS))
def test_enhance_directory_of_mixed_shapes_matches_one_image_at_a_time(tmp_path, stage, capsys):
    # runs of one shape are stacked (65 images of 32 px make two stacks) and
    # broken wherever the shape changes
    shapes = [(f"a{i:02d}.pgm", (32, 32)) for i in range(65)]
    shapes += [("b0.pgm", (48, 48)), ("b1.pgm", (48, 48)), ("c0.pgm", (1, 1000)),
               ("d0.pgm", (1000, 1)), ("e0.pgm", (300, 500)), ("f0.pgm", (32, 32))]
    arrays = _enhance_inputs(tmp_path / "in", shapes)
    out = tmp_path / "out"
    assert run(["--verbose", "--out-dir", str(out), "enhance", str(tmp_path / "in"),
                "--stage", stage, "--tiles", "1", "1", "--clip", "1.5",
                "--median-radius", "2"]) == 0
    stdout = capsys.readouterr().out
    assert re.findall(r"^  (\S+)$", stdout, re.M) == sorted(arrays)
    for name, arr in arrays.items():
        expected = _STAGE_FUNCTIONS[stage](arr)
        assert (out / name).read_bytes() == (
            b"P5\n%d %d\n255\n" % arr.shape[::-1] + expected.tobytes()
        ), name


@pytest.mark.parametrize("stage, fn", [
    ("chain", lambda img: enhance.enhance_chain(img, enhance.ClaheParams(), 1)),
    ("clahe", lambda img: enhance.clahe(img, enhance.ClaheParams())),
    ("equalize", enhance.hist_equalize),
])
def test_enhance_stops_at_a_corrupt_pgm_after_writing_the_inputs_before_it(
    tmp_path, capsys, stage, fn
):
    arrays = _enhance_inputs(tmp_path / "in", [(f"i{k}.pgm", (32, 32)) for k in range(6)])
    (tmp_path / "in" / "i3.pgm").write_bytes(b"P5\n32 32\n255\n" + bytes(100))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["--verbose", "--out-dir", str(out), "enhance", str(tmp_path / "in"),
                "--stage", stage]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {tmp_path / 'in' / 'i3.pgm'}: truncated PGM payload: expected 1024 bytes, got 100\n"
    )
    assert captured.out.splitlines()[1:] == ["  i0.pgm", "  i1.pgm", "  i2.pgm"]
    assert sorted(p.name for p in out.iterdir()) == ["i0.pgm", "i1.pgm", "i2.pgm"]
    for name in ("i0.pgm", "i1.pgm", "i2.pgm"):
        expected = fn(arrays[name])
        assert (out / name).read_bytes().endswith(expected.tobytes())


def test_enhance_stops_at_the_first_image_its_tile_grid_does_not_fit(tmp_path, capsys):
    _enhance_inputs(tmp_path / "in", [("a0.pgm", (32, 32)), ("a1.pgm", (32, 32)),
                                      ("b0.pgm", (1, 1000)), ("c0.pgm", (32, 32))])
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["--out-dir", str(out), "enhance", str(tmp_path / "in"), "--stage", "clahe"]) == 1
    assert _one_error_line(capsys) == "error: tile grid 8x8 exceeds image 1000x1\n"
    assert sorted(p.name for p in out.iterdir()) == ["a0.pgm", "a1.pgm"]


def _class_manifest(root, counts, odd=None, side=32):
    """A manifest of random side px PGMs, counts[c] of class c, in class
    order; the file named odd is 40 px instead."""
    root.mkdir()
    rng = np.random.default_rng(0)
    rows = []
    for c, n in enumerate(counts):
        for i in range(n):
            name = f"c{c}_{i}.pgm"
            size = (40, 40) if name == odd else (side, side)
            save_pgm(rng.integers(0, 256, size, dtype=np.uint8), root / name)
            rows.append(f"{name},{c},0\n")
    (root / "manifest.csv").write_text("# seed=0\npath,class_id,rotation\n" + "".join(rows))
    return root / "manifest.csv"


def _checkpoint(tmp_path, num_classes=6):
    path = tmp_path / f"model{num_classes}.bin"
    save_model(FusionNet(ModelConfig(num_classes=num_classes), seed=0), path)
    return path


@pytest.mark.parametrize("command", ["predict", "orient"])
def test_a_files_row_does_not_depend_on_what_else_is_on_the_command_line(
    trained, tmp_path, command
):
    data, out = trained
    images = sorted(data.glob("*.pgm"))
    if command == "predict":
        ckpt, results = out / "checkpoint.bin", "predictions.csv"
    else:
        ckpt, results = _checkpoint(tmp_path, num_classes=4), "orientation.csv"

    def rows(inputs, out_dir):
        argv = ["--out-dir", str(out_dir), command, "--checkpoint", str(ckpt)]
        assert run([*argv, *map(str, inputs)]) == 0
        return (out_dir / results).read_text().splitlines()[1:]

    together = rows(images, tmp_path / "all")
    assert len(together) == len(images) > 2 * nnet.EVAL_CHUNK
    assert [rows([image], tmp_path / f"one{i}")[0] for i, image in enumerate(images)] == together


def test_predict_memory_grows_by_less_than_3_bytes_per_input_pixel(tmp_path):
    import tracemalloc

    ckpt = _checkpoint(tmp_path)
    rng = np.random.default_rng(25)
    (tmp_path / "in").mkdir()
    paths = [tmp_path / "in" / f"i{i:03d}.pgm" for i in range(505)]
    for path in paths:
        save_pgm(random_image(rng, 32, 32), path)

    def peak(n):
        argv = ["--out-dir", str(tmp_path / f"out{n}"), "predict", "--checkpoint", str(ckpt)]
        tracemalloc.start()
        try:
            assert run([*argv, *map(str, paths[:n])]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the uint8 stack and the file reads it is built from take under 2 bytes
    # a pixel; a float32 copy of the whole stack would add 4 or more
    assert peak(505) - peak(64) < 3 * (505 - 64) * 32 * 32


@pytest.mark.parametrize("command", ["train", "orient-train", "predict", "cluster", "enhance"])
def test_a_malformed_image_is_one_error_line_naming_its_file(tmp_path, capsys, command):
    manifest = _class_manifest(tmp_path / "data", [2] * 6)
    bad = tmp_path / "data" / "c3_1.pgm"
    bad.write_bytes(b"P5\n32 x\n255\n")
    argv = {
        "train": ["train", "--manifest", str(manifest), "--epochs", "1"],
        "orient-train": ["orient-train", "--manifest", str(manifest), "--epochs", "1"],
        "predict": ["predict", "--checkpoint", str(_checkpoint(tmp_path)),
                    "--manifest", str(manifest)],
        "cluster": ["cluster", "--manifest", str(manifest)],
        "enhance": ["enhance", str(tmp_path / "data"), "--stage", "equalize"],
    }[command]
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "run")] + argv) == 1
    assert _one_error_line(capsys) == f"error: {bad}: malformed PGM header: bad height b'x'\n"
    if command != "enhance":  # enhance writes the images before the bad one
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "eval", "predict", "orient"])
def test_images_of_two_sizes_are_refused_naming_the_first_that_differs(tmp_path, capsys, command):
    # c5_1 is the manifest's last entry, so it is the last image of its split
    manifest = _class_manifest(tmp_path / "data", [2] * 6, odd="c5_1.pgm")
    images = [str(tmp_path / "data" / name) for name in ("c0_0.pgm", "c5_1.pgm", "c1_0.pgm")]
    argv = {
        "train": ["train", "--manifest", str(manifest), "--epochs", "1"],
        "eval": ["eval", "--checkpoint", str(_checkpoint(tmp_path)), "--manifest", str(manifest)],
        "predict": ["predict", "--checkpoint", str(_checkpoint(tmp_path))] + images,
        "orient": ["orient", "--checkpoint", str(_checkpoint(tmp_path, 4))] + images,
    }[command]
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "run")] + argv) == 1
    assert _one_error_line(capsys) == (
        f"error: {tmp_path / 'data' / 'c5_1.pgm'}: image is 40x40, "
        "expected 32x32 like the images before it\n"
    )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, split", [
    ("train", "training"), ("train", "validation"), ("orient-train", "training"),
    ("predict", None), ("eval", None), ("orient", None),
])
def test_images_not_of_the_input_size_are_refused_naming_file_and_size(
    tmp_path, capsys, command, split
):
    data = tmp_path / "data"
    manifest = _class_manifest(data, [2] * 6, side=32 if split == "validation" else 40)
    if split == "validation":  # the validation images alone are 40 px
        val = trainer.training_set(load_manifest(manifest), trainer.TrainConfig()).val
        for e in val.entries:
            save_pgm(np.zeros((40, 40), dtype=np.uint8), data / e.path)
    first = data / "c0_0.pgm"
    images = [str(first), str(data / "c1_0.pgm")]
    ckpt = _checkpoint(tmp_path, 4 if command == "orient" else 6)
    argv = {
        "train": ["train", "--manifest", str(manifest), "--epochs", "1"],
        "orient-train": ["orient-train", "--manifest", str(manifest), "--epochs", "1"],
        "predict": ["predict", "--checkpoint", str(ckpt)] + images,
        "eval": ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)],
        "orient": ["orient", "--checkpoint", str(ckpt)] + images,
    }[command]
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "run")] + argv) == 1
    if split is None:
        expected = f"{first}: image is 40x40, but checkpoint {ckpt} takes 32x32 input"
    else:
        expected = f"manifest {manifest}: {split} images are 40x40, but --input-size is 32"
    assert _one_error_line(capsys) == f"error: {expected}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("uniform", [False, True])
def test_training_without_images_of_a_class_names_it(tmp_path, capsys, uniform):
    manifest = _class_manifest(tmp_path / "data", [2, 2, 2, 2, 3, 0])
    capsys.readouterr()
    argv = ["--out-dir", str(tmp_path / "run"), "train", "--manifest", str(manifest),
            "--epochs", "1"] + (["--uniform-loss"] if uniform else [])
    assert run(argv) == 1
    assert _one_error_line(capsys) == "error: empty classes: [5]\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "1", "--weighting-report", "weighting.json"],
    ["orient-train", "--epochs", "1"],
])
def test_a_training_command_splits_once_and_reads_each_image_once(
    trained, tmp_path, monkeypatch, argv
):
    data, _ = trained
    manifest = load_manifest(data / "manifest.csv")
    reads, splits = [], []
    real_load, real_split = load_pgm, trainer.stratified_split

    def counting_load(path):
        reads.append(str(path))
        return real_load(path)

    def counting_split(*args, **kwargs):
        splits.append(1)
        return real_split(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dxpipe") and getattr(module, "load_pgm", None) is real_load:
            monkeypatch.setattr(module, "load_pgm", counting_load)
    monkeypatch.setattr(trainer, "stratified_split", counting_split)
    monkeypatch.chdir(tmp_path)
    assert run(["--seed", "5", "--out-dir", "run", argv[0],
                "--manifest", str(data / "manifest.csv")] + argv[1:]) == 0
    assert sorted(reads) == sorted(str(manifest.resolve(e)) for e in manifest.entries)
    assert len(splits) == 1


_ENHANCE_PGMS = [
    b"P5\n5 4\n255\n" + bytes(range(0, 250, 13))[:20],
    b"P5\n5 4\n200\n" + bytes(range(0, 200, 10)),
    b"P2\n# c\n5 4\n15\n" + b" ".join(b"%d" % (v % 16) for v in range(20)) + b"\n",
]
_ENHANCE_TOKENS = [b"", b" ", b"\n", b"#", b"P2", b"P5", b"0", b"4", b"5", b"15", b"200",
                   b"255", b"256", b"99999999999", b"\xff", b"\xc9", b"-"]


def _mutated(data, sample: bytes, tokens, positions=None) -> bytes:
    """sample with 0-3 spans of 0-3 bytes, each at one of positions (default:
    anywhere), replaced by a token or by random bytes."""
    buf = bytearray(sample)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(buf)) if positions is None else positions)
        cut = data.draw(st.integers(0, 3))
        buf[i : i + cut] = data.draw(st.sampled_from(tokens) | st.binary(max_size=3))
    return bytes(buf)


def _exits_0_or_with_one_error_line(argv) -> None:
    """run(argv) returns 0 with nothing on stderr, or 1 with one error line;
    it raises no numpy warning, which pytest would take out of stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enhance_on_mutated_pgms_exits_0_or_with_one_error_line(tmp_path_factory, data):
    # three inputs (P5 at maxval 255 and 200, P2 at maxval 15), each mutated
    # or not; enhance runs on their directory, so the good ones share stacks
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    (work / "in").mkdir()
    for k, sample in enumerate(_ENHANCE_PGMS):
        (work / "in" / f"{k}.pgm").write_bytes(_mutated(data, sample, _ENHANCE_TOKENS))
    stage = data.draw(st.sampled_from(["chain", "median", "clahe"]))
    tiles = [str(data.draw(st.integers(1, 3))) for _ in range(2)]
    _exits_0_or_with_one_error_line(["--out-dir", str(work / "out"), "enhance", str(work / "in"),
                                     "--stage", stage, "--tiles", *tiles])


# 16 px PGMs: P5 at maxval 255 and P2 at maxval 15
_MODEL_PGMS = [
    b"P5\n16 16\n255\n" + bytes(range(0, 256, 1)),
    b"P2\n16 16\n15\n" + b" ".join(b"%d" % (v % 16) for v in range(256)) + b"\n",
]
_READER_MANIFEST = b'# seed=0\npath,class_id,rotation\na.pgm,0,0\n"b,c.pgm",1,3\n'
_READER_REPORT = build_report([0, 1], [0, 1], 2, score_matrix=np.eye(2)).to_json().encode()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_text_readers_on_mutated_files_exit_0_or_with_one_error_line(tmp_path_factory, data):
    # a manifest and its two PGMs for cluster, a manifest and predictions for
    # eval --predictions, or an eval report for report; each file mutated or not
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))

    def mutated(name, sample, tokens):
        (work / name).write_bytes(_mutated(data, sample, tokens))
        return str(work / name)

    command = data.draw(st.sampled_from(["cluster", "eval", "report"]))
    if command == "cluster":
        for name, pgm in zip(("a.pgm", "b,c.pgm"), _MODEL_PGMS):
            mutated(name, pgm, _ENHANCE_TOKENS)
        argv = ["cluster", "--k", "2", "--manifest",
                mutated("m.csv", _READER_MANIFEST, _MANIFEST_TOKENS)]
    elif command == "eval":
        argv = ["eval", "--manifest", mutated("m.csv", _READER_MANIFEST, _MANIFEST_TOKENS),
                "--predictions", mutated("p.csv", _PREDICTIONS_SAMPLE, _PREDICTIONS_TOKENS)]
    else:
        report = mutated("r.json", _READER_REPORT, [t.encode() for t in _REPORT_TOKENS])
        argv = ["report", "--model", report, "--annotators", report]
    _exits_0_or_with_one_error_line(["--out-dir", str(work / "out"), *argv])


_CHECKPOINT_TOKENS = [b"", b"\n", b"=", b",", b"@", b"[config]", b"[tensors]", b"input_size",
                      b"num_classes", b"dropout_rate", b".w", b"-", b"0", b"1", b"4", b"16",
                      b"99999999999", b"nan", b"inf", b"\xff", b"\x00"]
# float32 bit patterns: +-inf, nan, the largest float, -1e30, a subnormal
_WEIGHT_BITS = [struct.pack("<f", v) for v in (np.inf, -np.inf, np.nan, 3.4e38, -1e30, 1e-45)]


# classes 0, 0, 1, ..., 5: each class in the training split, class 0 in both
_MODEL_CLASSES = (0, 0, 1, 2, 3, 4, 5)
_TINY_TRAINING = ["--epochs", "1", "--batch-size", "4", "--input-size", "16",
                  "--branch-a-dim", "3", "--branch-b-dim", "3", "--fusion-dim", "4"]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_model_readers_on_mutated_inputs_exit_0_or_with_one_error_line(tmp_path_factory, data):
    # a pose checkpoint for predict, eval --checkpoint or orient, mutated in
    # its header and metadata, or with weights overwritten in place; two
    # mutated PGM inputs for those three and for train and orient-train; and
    # a mutated manifest of them for predict --manifest, eval --checkpoint,
    # train and orient-train
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    # a small pose model: 16 px input, dense layers of 3, 3 and 4 units
    save_model(FusionNet(ModelConfig(16, 3, 3, 4, num_classes=4), seed=0), work / "model.bin")
    sample = (work / "model.bin").read_bytes()
    meta_end = 20 + struct.unpack_from("<Q", sample, 12)[0]
    buf = bytearray(_mutated(data, sample, _CHECKPOINT_TOKENS, st.integers(0, meta_end)))
    for _ in range(data.draw(st.integers(0, 2))):
        i = meta_end + 4 * data.draw(st.integers(0, (len(sample) - meta_end) // 4 - 1))
        buf[i : i + 4] = data.draw(st.sampled_from(_WEIGHT_BITS) | st.binary(min_size=4, max_size=4))
    (work / "model.bin").write_bytes(bytes(buf))
    ckpt = ["--checkpoint", str(work / "model.bin")]
    command = data.draw(st.sampled_from(
        ["predict", "predict --manifest", "eval", "orient", "train", "orient-train"]
    ))
    training = command in ("train", "orient-train")
    images = []
    for k, pgm in enumerate(_MODEL_PGMS):
        (work / f"{k}.pgm").write_bytes(_mutated(data, pgm, _ENHANCE_TOKENS))
        images.append(f"{k}.pgm")
    if command in ("predict", "orient"):
        argv = [command, *ckpt, *(str(work / name) for name in images)]
    else:
        # the two mutated images first, of class 0; a training also gets an
        # intact image of each other class
        if training:
            for k in range(len(images), len(_MODEL_CLASSES)):
                (work / f"{k}.pgm").write_bytes(_MODEL_PGMS[k % 2])
                images.append(f"{k}.pgm")
        rows = "".join(f"{name},{c},0\n" for name, c in zip(images, _MODEL_CLASSES))
        manifest = ("# seed=0\npath,class_id,rotation\n" + rows).encode()
        (work / "m.csv").write_bytes(_mutated(data, manifest, _MANIFEST_TOKENS))
        flags = _TINY_TRAINING if training else ckpt
        argv = [command.split()[0], "--manifest", str(work / "m.csv"), *flags]
    _exits_0_or_with_one_error_line(["--out-dir", str(work / "out"), *argv])


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("command", ["predict", "eval", "orient"])
def test_a_non_finite_weight_is_one_error_line_naming_its_layer(
    tmp_path, capsys, recwarn, command, value
):
    manifest = _class_manifest(tmp_path / "data", [1, 1, 1])
    images = [str(tmp_path / "data" / f"c{c}_0.pgm") for c in range(3)]
    model = FusionNet(ModelConfig(num_classes=4 if command == "orient" else 6), seed=0)
    model.params["branch_a.conv1.w"][0, 0, 1, 1] = value
    save_model(model, tmp_path / "bad.bin")
    ckpt = ["--checkpoint", str(tmp_path / "bad.bin")]
    argv = {
        "predict": ["predict", *ckpt, *images],
        "eval": ["eval", *ckpt, "--manifest", str(manifest)],
        "orient": ["orient", *ckpt, *images],
    }[command]
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "run")] + argv) == 1
    assert _one_error_line(capsys) == "error: non-finite values in branch_a.conv1\n"
    # numpy's invalid-value warnings, which pytest would otherwise take out
    # of stderr, are not raised
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("radius", ["0", str(MAX_MEDIAN_RADIUS + 1), "1000000"])
def test_enhance_refuses_a_median_radius_outside_its_bound_by_name(
    tmp_path, capsys, monkeypatch, radius
):
    _enhance_inputs(tmp_path / "in", [("a.pgm", (32, 32))])
    monkeypatch.setattr("dxpipe.cli.load_pgm", None)  # any image work would fail
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["--out-dir", str(out), "enhance", str(tmp_path / "in"),
                "--median-radius", radius]) == 1
    message = f"error: --median-radius must be 1..{MAX_MEDIAN_RADIUS}, got {radius}\n"
    assert _one_error_line(capsys) == message
    assert not out.exists()


@pytest.fixture(scope="module")
def unread_manifest(tmp_path_factory):
    """A manifest whose images a test makes unreadable."""
    data = tmp_path_factory.mktemp("unread")
    assert run(["--out-dir", str(data), "synth", "--scale", "0.02"]) == 0
    return data / "manifest.csv"


@pytest.mark.parametrize("command", ["train", "orient-train"])
@pytest.mark.parametrize("flag", ["--input-size", "--branch-a-dim", "--branch-b-dim", "--fusion-dim"])
def test_training_refuses_a_model_above_the_parameter_bound_by_name(
    tmp_path, capsys, monkeypatch, unread_manifest, command, flag
):
    monkeypatch.setattr("dxpipe.trainer.load_pgms", None)  # any image read would fail
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["--out-dir", str(out), command, "--manifest", str(unread_manifest),
                flag, "10000000000000"]) == 1
    message = rf"error: the model has \d+ parameters, more than {nnet.MAX_PARAMS}\n"
    assert re.fullmatch(message, _one_error_line(capsys))
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "orient-train"])
@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_training_refuses_a_non_finite_lr_by_name(
    tmp_path, capsys, monkeypatch, unread_manifest, command, lr
):
    monkeypatch.setattr("dxpipe.trainer.load_pgms", None)  # any image read would fail
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["--out-dir", str(out), command, "--manifest", str(unread_manifest),
                "--lr", lr]) == 1
    assert _one_error_line(capsys) == f"error: lr must be finite and >= 0, got {lr}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["train", "--epochs", "1"], ["orient-train", "--epochs", "1"], ["cluster", "--k", "3"],
])
def test_a_negative_seed_runs_as_that_seed_mod_2_64(tmp_path, command):
    data = tmp_path / "data"
    assert run(["--out-dir", str(data), "synth", "--scale", "0.02"]) == 0
    trees = []
    for seed in ("-1", str(2**64 - 1)):
        out = tmp_path / f"seed{seed}"
        assert run(["--seed", seed, "--out-dir", str(out), *command,
                    "--manifest", str(data / "manifest.csv")]) == 0
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("scale", ["inf", "nan", "-1", "0", "1e-6", "1e308", "40", "1e300"])
def test_synth_refuses_a_scale_that_gives_no_dataset_by_name(tmp_path, capsys, monkeypatch, scale):
    monkeypatch.setattr("dxpipe.synth.generate_dataset", None)  # any image work would fail
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "data"), "synth", "--scale", scale]) == 1
    assert "--scale" in _one_error_line(capsys)
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("size", [str(MAX_IMAGE_SIZE + 1), "100000"])
def test_synth_refuses_an_image_size_above_its_bound_by_name(tmp_path, capsys, monkeypatch, size):
    monkeypatch.setattr("dxpipe.synth.generate_dataset", None)  # any image work would fail
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "data"), "synth", "--image-size", size,
                "--scale", "0.001"]) == 1
    assert _one_error_line(capsys) == f"error: image_size must be 16..{MAX_IMAGE_SIZE}, got {size}\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", [
    "cluster", "train", "orient-train", "predict", "eval --checkpoint", "eval --predictions",
])
def test_an_empty_manifest_is_refused_by_name(trained, tmp_path, capsys, command):
    _, out = trained
    manifest = tmp_path / "m.csv"
    manifest.write_text("# seed=0\npath,class_id,rotation\n")
    preds = tmp_path / "predictions.csv"
    preds.write_text("path,predicted,score_0\na.pgm,0,1.000000\n")
    ckpt = ["--checkpoint", str(out / "checkpoint.bin")]
    argv = {
        "predict": ["predict", *ckpt],
        "eval --checkpoint": ["eval", *ckpt],
        "eval --predictions": ["eval", "--predictions", str(preds)],
    }.get(command, [command])
    capsys.readouterr()
    assert run(["--out-dir", str(tmp_path / "out"), *argv, "--manifest", str(manifest)]) == 1
    assert _one_error_line(capsys) == f"error: manifest {manifest}: no images\n"
    assert not (tmp_path / "out").exists()


def _config_line(out: str) -> str:
    lines = [line for line in out.splitlines() if line.startswith("config: ")]
    assert len(lines) == 1
    return lines[0]


def test_a_second_run_builds_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    save_pgm(constant_image(16, 16, 50), tmp_path / "c.pgm")
    argv = ["--out-dir", str(tmp_path / "out"), "enhance", str(tmp_path / "c.pgm")]
    assert run(argv) == 0
    assert len(built) == 1 + len(cli._COMMANDS)  # the parser and one per subcommand
    built.clear()
    assert run(argv) == 0
    missing = ["report", "--model", str(tmp_path / "no.json")]
    assert run(["--out-dir", str(tmp_path / "cmp"), *missing]) == 1
    assert built == []


@pytest.mark.parametrize("bad, code", [
    (["enhance", "--bogus"], 2),
    (["enhance", "--tiles", "3"], 2),
    (["report"], 2),
    (["--help"], 0),
    (["enhance", "--help"], 0),
])
def test_a_run_after_an_argument_error_matches_a_run_alone(tmp_path, capsys, bad, code):
    src = tmp_path / "in"
    src.mkdir()
    rng = np.random.default_rng(1)
    for i in range(3):
        save_pgm(random_image(rng, 24, 24), src / f"i{i}.pgm")
    out = tmp_path / "out"
    argv = ["--out-dir", str(out), "enhance", str(src)]

    def alone():
        assert run(argv) == 0
        tree = tree_bytes(out)
        shutil.rmtree(out)
        return tree, _config_line(capsys.readouterr().out)

    cli._build_parser.cache_clear()
    first = alone()
    with pytest.raises(SystemExit) as exc:
        run(["--out-dir", str(out), *bad])
    assert exc.value.code == code
    assert not out.exists()
    capsys.readouterr()
    assert alone() == first
    assert "tiles=[8, 8]" in first[1]


def test_no_command_changes_a_list_default(tmp_path, capsys):
    save_pgm(constant_image(16, 16, 50), tmp_path / "c.pgm")
    report = tmp_path / "r.json"
    report.write_text(build_report([0, 1], [0, 1], 2).to_json())
    for argv in (
        ["enhance", str(tmp_path / "c.pgm")],
        ["enhance", str(tmp_path / "c.pgm"), "--tiles", "2", "2"],
        ["report", "--model", str(report)],
        ["report", "--model", str(report), "--annotators", str(report)],
    ):
        assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 0
    parser = cli._build_parser()
    assert parser.parse_args(["enhance", "x"]).tiles == [8, 8]
    assert parser.parse_args(["report", "--model", "m"]).annotators == []


def test_orient_in_process_gives_the_bytes_of_a_fresh_process(trained, tmp_path):
    data, out = trained
    ckpt = _checkpoint(tmp_path, num_classes=4)
    images = [str(p) for p in sorted(data.glob("*.pgm"))[:5]]

    def orient(run_dir, in_process):
        argv = ["--out-dir", str(run_dir), "orient", "--checkpoint", str(ckpt), *images]
        if in_process:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run(argv) == 0
            text = stdout.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "dxpipe.cli", *argv], env=_cli_env(),
                                  capture_output=True, text=True, check=True)
            text = proc.stdout
        return tree_bytes(run_dir), _config_line(text)

    fresh = orient(tmp_path / "o", in_process=False)
    assert len(fresh[0]) == len(images) + 1
    turns = [line.split(",")[1] for line in fresh[0]["orientation.csv"].decode().splitlines()[1:]]
    assert set(turns) != {"0"}  # some image is turned back
    for other in (
        ["predict", "--checkpoint", str(out / "checkpoint.bin"), *images],
        ["enhance", images[0], "--tiles", "2", "2"],
    ):
        assert run(["--out-dir", str(tmp_path / "other"), *other]) == 0
    for _ in range(2):
        shutil.rmtree(tmp_path / "o")
        assert orient(tmp_path / "o", in_process=True) == fresh


def _refusal_case(root, command, flag, name):
    """argv of command with the input given by flag at <out-dir>/name, a
    copy of a valid input, spelt with a '..'; the out-dir of a --manifest
    case is the dataset's, since a manifest names its images relative to
    its directory."""
    data = root / "data"
    assert run(["--out-dir", str(data), "synth", "--scale", "0.02"]) == 0
    report = root / "r.json"
    report.write_text(build_report([0, 1], [0, 1], 2).to_json())
    model = _checkpoint(root)
    inputs = {"--manifest": data / "manifest.csv", "--checkpoint": model, "--model": report,
              "--annotators": report}
    argv = {
        "cluster": ["cluster"],
        "train": ["train", "--epochs", "1"],
        "orient-train": ["orient-train", "--epochs", "1"],
        "predict": ["predict", "--checkpoint", str(model), "--manifest", str(data / "manifest.csv")],
        "report": ["report", "--model", str(report)],
    }[command]
    out = data if flag == "--manifest" else root / "out"
    (out / "sub").mkdir(parents=True)
    (out / name).write_bytes(inputs[flag].read_bytes())
    given = out / "sub" / ".." / name
    if flag in argv:
        argv[argv.index(flag) + 1] = str(given)
    else:
        argv += [flag, str(given)]
    return ["--out-dir", str(out), *argv], out, given


@pytest.mark.parametrize("command, flag, name", [
    ("train", "--manifest", "train_manifest.csv"),
    ("train", "--manifest", "checkpoint.bin"),
    ("orient-train", "--manifest", "orient_trainlog.csv"),
    ("cluster", "--manifest", "contingency.csv"),
    ("predict", "--manifest", "predictions.csv"),
    ("predict", "--checkpoint", "predictions.csv"),
    ("report", "--model", "comparison.csv"),
    ("report", "--annotators", "comparison.csv"),
])
def test_an_input_that_the_command_replaces_is_refused_before_it_is_read(
    tmp_path, capsys, monkeypatch, command, flag, name
):
    argv, out, given = _refusal_case(tmp_path, command, flag, name)
    before = tree_bytes(out)

    def no_read(*args, **kwargs):
        raise AssertionError("an input was read before the outputs were checked")

    for module, reader in ((cli, "_load_manifest"), (cli.ckpt_io, "load_model"),
                           (cli, "_read_report")):
        monkeypatch.setattr(module, reader, no_read)
    capsys.readouterr()
    assert run(argv) == 1
    assert _one_error_line(capsys) == (
        f"error: {flag} {given} is a file that {command} replaces\n"
    )
    assert tree_bytes(out) == before


def _record_calls(monkeypatch, *targets) -> list:
    """The names of the targets ((module, name) pairs) called while the
    test runs, in order; each call still runs the real function."""
    calls = []
    for module, name in targets:
        def recorded(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("spelling", ["m.csv", "sub/../m.csv"])
def test_a_weighting_report_onto_the_manifest_is_refused_before_it_is_read(
    tmp_path, capsys, monkeypatch, spelling
):
    data = tmp_path / "d"
    assert run(["--out-dir", str(data), "synth", "--scale", "0.02"]) == 0
    (data / "sub").mkdir()
    manifest = data / "m.csv"
    shutil.copy(data / "manifest.csv", manifest)
    before = manifest.read_bytes()
    calls = _record_calls(monkeypatch, (cli, "_load_manifest"), (trainer, "train"))
    out = tmp_path / "run"
    capsys.readouterr()
    code = run(["--out-dir", str(out), "train", "--manifest", str(manifest), "--epochs", "1",
                "--weighting-report", str(data / spelling)])
    assert code == 1
    assert _one_error_line(capsys) == f"error: --manifest {manifest} is a file that train replaces\n"
    assert calls == []
    assert manifest.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize("name", ["orientation.csv", "x.pgm"])
def test_orient_refuses_a_checkpoint_that_it_replaces(tmp_path, capsys, monkeypatch, name):
    image = tmp_path / "in" / "x.pgm"
    image.parent.mkdir()
    save_pgm(constant_image(32, 32, 10), image)
    out = tmp_path / "fixed"
    out.mkdir()
    target = out / name
    shutil.copy(_checkpoint(tmp_path, num_classes=4), target)
    given = target
    if name == "x.pgm":  # a link outside --out-dir to the file that x.pgm's copy replaces
        given = tmp_path / "link.bin"
        given.symlink_to(target)
    before = target.read_bytes()
    calls = _record_calls(monkeypatch, (cli.ckpt_io, "load_model"), (cli, "load_pgms"))
    capsys.readouterr()
    assert run(["--out-dir", str(out), "orient", "--checkpoint", str(given), str(image)]) == 1
    assert _one_error_line(capsys) == f"error: --checkpoint {given} is a file that orient replaces\n"
    assert calls == []
    assert tree_bytes(out) == {name: before}


def test_predict_refuses_an_image_that_it_replaces(tmp_path, capsys, monkeypatch):
    out = tmp_path / "pp"
    out.mkdir()
    image = out / "predictions.csv"  # a PGM, whatever its name
    save_pgm(constant_image(32, 32, 10), image)
    before = image.read_bytes()
    ckpt = _checkpoint(tmp_path)
    calls = _record_calls(monkeypatch, (cli.ckpt_io, "load_model"), (cli, "load_pgms"))
    capsys.readouterr()
    assert run(["--out-dir", str(out), "predict", "--checkpoint", str(ckpt), str(image)]) == 1
    assert _one_error_line(capsys) == f"error: input {image} is a file that predict replaces\n"
    assert calls == []
    assert tree_bytes(out) == {"predictions.csv": before}


def _claims_and_writes(monkeypatch):
    """Two lists that fill as commands run: the output lists given to
    cli._claim, and the paths given to fileio.write_atomic by any module."""
    claims, writes = [], []
    real_claim = cli._claim

    def claim(args, outputs, *flags):
        claims.append(list(outputs))
        return real_claim(args, outputs, *flags)

    monkeypatch.setattr(cli, "_claim", claim)
    real_write = fileio.write_atomic

    def write(path, data):
        writes.append(path)
        return real_write(path, data)

    for name, module in list(sys.modules.items()):
        if name.startswith("dxpipe") and getattr(module, "write_atomic", None) is real_write:
            monkeypatch.setattr(module, "write_atomic", write)
    return claims, writes


@pytest.mark.parametrize(
    "command", ["cluster", "train", "orient-train", "orient", "predict", "eval", "report"]
)
def test_a_command_claims_every_file_that_it_writes(trained, tmp_path, monkeypatch, command):
    data, run_dir = trained
    model, val = str(run_dir / "checkpoint.bin"), str(run_dir / "val_manifest.csv")
    ev = tmp_path / "ev"  # a used out-dir: eval claims the curves that are there
    assert run(["--out-dir", str(ev), "eval", "--checkpoint", model, "--manifest", val]) == 0
    manifest = str(data / "manifest.csv")
    argv = {
        "cluster": ["cluster", "--manifest", manifest],
        "train": ["train", "--manifest", manifest, "--epochs", "1",
                  "--weighting-report", str(tmp_path / "w" / "weighting.json")],
        "orient-train": ["orient-train", "--manifest", manifest, "--epochs", "1"],
        "orient": ["orient", "--checkpoint", str(_checkpoint(tmp_path, num_classes=4)),
                   *(str(p) for p in sorted(data.glob("*.pgm"))[:3])],
        "predict": ["predict", "--checkpoint", model, "--manifest", val],
        "eval": ["eval", "--checkpoint", model, "--manifest", val],
        "report": ["report", "--model", str(ev / "eval_report.json"),
                   "--annotators", str(ev / "eval_report.json")],
    }[command]
    claims, writes = _claims_and_writes(monkeypatch)
    out = ev if command == "eval" else tmp_path / "out"
    assert run(["--out-dir", str(out), *argv]) == 0
    assert len(claims) == 1
    claimed = sorted(os.path.realpath(p) for p in claims[0])
    if command == "eval":
        assert len(claimed) > 1  # the report and the curves of the run before
    assert sorted(os.path.realpath(p) for p in writes) == claimed


def test_orient_resolves_each_path_once(tmp_path, monkeypatch):
    images = []
    for i in range(64):
        images.append(tmp_path / "in" / f"i{i}.pgm")
        save_pgm(constant_image(32, 32, i), images[-1])
    ckpt = _checkpoint(tmp_path, num_classes=4)
    counted, real_realpath, real_claim = [], os.path.realpath, cli._claim

    def realpath(path, *args, **kwargs):
        counted[-1] += 1
        return real_realpath(path, *args, **kwargs)

    def claim(*args):
        counted.append(0)
        with monkeypatch.context() as m:
            m.setattr(os.path, "realpath", realpath)
            return real_claim(*args)

    monkeypatch.setattr(cli, "_claim", claim)
    argv = ["--out-dir", str(tmp_path / "out"), "orient", "--checkpoint", str(ckpt)]
    assert run(argv + [str(p) for p in images]) == 0
    assert len(counted) == 1
    assert counted[0] <= 64 + 2  # 64 corrected images, orientation.csv and --checkpoint
