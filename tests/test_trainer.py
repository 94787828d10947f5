import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import dxpipe
from dxpipe import nnet
from dxpipe import trainer as trainer_mod
from dxpipe.checkpoint import save_model
from dxpipe.nnet import FusionNet, ModelConfig
from dxpipe.orient import train_orient
from dxpipe.synth import (
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    SynthParams,
    generate_dataset,
    save_manifest,
)
from dxpipe.trainer import (
    TrainConfig,
    augment_epoch,
    compute_class_weights,
    stratified_split,
    train,
    training_set,
)

FAST = dict(epochs=2, batch_size=16, seed=3)


def manifest_with_counts(counts) -> DatasetManifest:
    entries = []
    for cid, n in enumerate(counts):
        for i in range(n):
            entries.append(ManifestEntry(f"c{cid}_{i}.pgm", cid))
    return DatasetManifest(entries=entries, seed=0)


def test_balanced_weights_are_ones():
    m = manifest_with_counts([7, 7, 7, 7, 7, 7])
    np.testing.assert_allclose(compute_class_weights(m), np.ones(6))


def test_weights_match_reference_counts():
    counts = [541, 632, 513, 523, 242, 75]
    w = compute_class_weights(manifest_with_counts(counts))
    assert abs(w[5] - 2526 / (6 * 75)) < 1e-12
    assert abs(w[5] - 5.613) < 1e-3
    for c in range(6):
        assert abs(w[c] - 2526 / (6 * counts[c])) < 1e-12


def test_weights_scale_invariant():
    a = compute_class_weights(manifest_with_counts([10, 20, 30, 10, 20, 30]))
    b = compute_class_weights(manifest_with_counts([20, 40, 60, 20, 40, 60]))
    np.testing.assert_allclose(a, b)


def test_weights_reject_empty_class():
    with pytest.raises(ValueError, match="empty"):
        compute_class_weights(manifest_with_counts([5, 5, 0, 5, 5, 5]))


def test_augment_epoch_without_rotations_is_permutation():
    order, turns = augment_epoch(8, seed=1, rotations=False)
    assert sorted(order.tolist()) == list(range(8))
    np.testing.assert_array_equal(turns, np.zeros(8, dtype=np.int64))


def test_augment_epoch_length_and_determinism():
    a = augment_epoch(15, seed=9, rotations=True)
    b = augment_epoch(15, seed=9, rotations=True)
    assert [len(x) for x in a] == [15, 15]
    assert all(x.dtype == np.int64 for x in a)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = augment_epoch(15, seed=10, rotations=True)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_augment_epoch_draws_all_turns():
    _, turns = augment_epoch(40, seed=2, rotations=True)
    assert set(turns.tolist()) == {0, 1, 2, 3}


def test_stratified_split_keeps_classes_in_both():
    m = manifest_with_counts([10, 10, 10, 10, 4, 2])
    tr, va = stratified_split(m, 0.2, seed=0)
    assert (tr.class_counts() > 0).all()
    assert (va.class_counts() > 0).all()
    assert len(tr.entries) + len(va.entries) == len(m.entries)
    assert not set(e.path for e in tr.entries) & set(e.path for e in va.entries)


def test_stratified_split_singleton_goes_to_train():
    m = manifest_with_counts([4, 1, 0, 0, 0, 0])
    tr, va = stratified_split(m, 0.25, seed=1)
    assert tr.class_counts()[1] == 1
    assert va.class_counts()[1] == 0


def test_lr_decay_schedule(tiny_dataset):
    t = TrainConfig(epochs=11, batch_size=32, lr=0.01, lr_decay_factor=0.5, lr_decay_every=10, seed=1)
    _, log = train(training_set(tiny_dataset, t, 32), ModelConfig(), t)
    lrs = [e.lr for e in log.epochs]
    assert lrs[0] == 0.01
    assert lrs[9] == 0.01
    assert lrs[10] == 0.005  # decay formula at epoch 10
    assert all(lrs[i + 1] <= lrs[i] for i in range(len(lrs) - 1))


def test_zero_lr_keeps_initial_weights(tiny_dataset):
    t = TrainConfig(epochs=1, lr=0.0, seed=5)
    model, _ = train(training_set(tiny_dataset, t, 32), ModelConfig(), t)
    fresh = FusionNet(ModelConfig(), seed=5)
    for name, tensor in model.params.items():
        np.testing.assert_array_equal(tensor, fresh.params[name])


def test_non_finite_validation_names_the_epoch(tiny_dataset, monkeypatch):
    def diverged(*args, **kwargs):
        raise FloatingPointError("non-finite values in logits")

    monkeypatch.setattr(trainer_mod, "evaluate_arrays", diverged)
    t = TrainConfig(epochs=1, seed=3)
    with pytest.raises(FloatingPointError, match="^epoch 0 validation: non-finite values in logits$"):
        train(training_set(tiny_dataset, t, 32), ModelConfig(), t)


def test_train_deterministic_per_seed(tiny_dataset):
    t = TrainConfig(**FAST)
    model1, log1 = train(training_set(tiny_dataset, t, 32), ModelConfig(), t)
    model2, log2 = train(training_set(tiny_dataset, t, 32), ModelConfig(), t)
    assert log1.to_csv() == log2.to_csv()
    for name in model1.params:
        np.testing.assert_array_equal(model1.params[name], model2.params[name])


def test_train_log_shape(tiny_dataset):
    t = TrainConfig(**FAST)
    _, log = train(training_set(tiny_dataset, t, 32), ModelConfig(), t)
    assert len(log.epochs) == t.epochs
    assert [e.epoch for e in log.epochs] == list(range(t.epochs))
    assert 0 <= log.best_epoch < t.epochs
    header = log.to_csv().splitlines()[0]
    assert header == "epoch,train_loss,val_loss,val_acc,lr"


def test_overfits_small_subset(tmp_path):
    """Trainability check: loss collapses on a 10-image manifest."""
    manifest = generate_dataset([2, 2, 2, 2, 1, 1], SynthParams(rng_seed=21), tmp_path)
    t = TrainConfig(epochs=200, batch_size=8, lr=0.01, seed=2, validation_fraction=0.2)
    _, log = train(training_set(manifest, t, 32), ModelConfig(dropout_rate=0.0), t, augment=False)
    assert min(e.train_loss for e in log.epochs) < 0.05


def test_best_checkpoint_is_best_val_epoch(tiny_dataset):
    t = TrainConfig(epochs=3, batch_size=16, seed=11)
    model, log = train(training_set(tiny_dataset, t, 32), ModelConfig(), t)
    best = log.epochs[log.best_epoch].val_acc
    assert all(e.val_acc <= best for e in log.epochs)

    # the returned parameters really are the best epoch's weights: re-evaluating
    # the model on the validation split reproduces the logged accuracy
    from dxpipe.trainer import evaluate_arrays, load_image_array

    val_m = training_set(tiny_dataset, t, 32).val
    vx = load_image_array(val_m, 32)
    vy = np.array([e.class_id for e in val_m.entries])
    _, acc, scores = evaluate_arrays(model, vx, vy, np.ones(6))
    assert abs(acc - best) < 1e-9
    np.testing.assert_array_equal(scores, log.best_scores)


def test_train_rejects_empty_manifest():
    t = TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="empty"):
        train(training_set(DatasetManifest(), t, 32), ModelConfig(), t)


def test_split_without_validation_images_is_refused_before_any_image_is_read():
    # the manifest's images do not exist: loading one would raise OSError
    m = manifest_with_counts([1, 1, 1, 1, 1, 1])
    with pytest.raises(ManifestError, match="validation split is empty"):
        training_set(m, TrainConfig(epochs=1), 32)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"lr must be finite and >= 0, got {lr}"):
            TrainConfig(lr=lr)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay_factor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=1.0)


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tiny_dataset, tmp_path):
    """Criterion 8 reruns in one process, so it cannot see a BLAS kernel that
    splits a reduction by thread count; two processes with one and two BLAS
    threads must write the same checkpoint and log bytes."""
    save_manifest(tiny_dataset, tmp_path / "manifest.csv")
    src = str(Path(dxpipe.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "dxpipe.cli", "--seed", "3", "--out-dir", str(out),
             "train", "--manifest", str(tmp_path / "manifest.csv"), "--epochs", "2"],
            env=env, check=True, capture_output=True,
        )
        outputs.append([(out / name).read_bytes() for name in ("checkpoint.bin", "trainlog.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fit", [train, train_orient])
def test_a_training_holds_one_forward_cache_at_a_time(tiny_dataset, monkeypatch, fit):
    """No training forward and no validation pass runs beside an earlier
    step's forward cache: a weak reference to each cache's branch B conv1
    columns is dead by then."""
    forward, eval_logits = FusionNet.forward, FusionNet.eval_logits
    columns = []
    alive = []  # (pass, earlier caches still alive) at the start of each pass

    def count(what):
        alive.append((what, sum(ref() is not None for ref in columns)))

    def traced_forward(self, x, train_mode=False, rng=None):
        count("forward")
        logits, cache = forward(self, x, train_mode, rng)
        columns.append(weakref.ref(cache["branch_b"]["cols1"]))
        return logits, cache

    def traced_eval_logits(self, x):
        count("validation")
        return eval_logits(self, x)

    monkeypatch.setattr(FusionNet, "forward", traced_forward)
    monkeypatch.setattr(FusionNet, "eval_logits", traced_eval_logits)
    t = TrainConfig(**FAST)
    fit(training_set(tiny_dataset, t, 32), ModelConfig(), t)
    assert [what for what, _ in alive].count("validation") == FAST["epochs"]
    assert len(columns) > FAST["epochs"]
    assert alive == [(what, 0) for what, _ in alive]


def test_checkpoint_bytes_do_not_depend_on_skipping_the_eval_pool_index(
    tiny_dataset, tmp_path, monkeypatch
):
    # validation passes pick the best epoch and no longer compute the
    # max-pool index; computing it there again must leave every byte as it is
    t = TrainConfig(**FAST)
    data = training_set(tiny_dataset, t, 32)

    def run(name):
        model, log = train(data, ModelConfig(), t)
        save_model(model, tmp_path / name)
        return (tmp_path / name).read_bytes(), log.to_csv()

    skipped = run("skipped.bin")
    pool = nnet.maxpool2_forward
    monkeypatch.setattr(nnet, "maxpool2_forward", lambda x, index=True: pool(x))
    assert run("indexed.bin") == skipped
