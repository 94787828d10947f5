import numpy as np
import pytest

from dxpipe.image import load_pgm, rotate
from dxpipe.nnet import FusionNet, ModelConfig, config_for_orientation
from dxpipe.orient import correct_orientation, orientation_stream, train_orient
from dxpipe.trainer import TrainConfig, training_set


def test_stream_covers_all_turns():
    index, turns, labels = orientation_stream(10, seed=0)
    assert [len(a) for a in (index, turns, labels)] == [40, 40, 40]
    # every (image, turn) pair exactly once, labelled by its turn
    pairs = sorted(zip(index.tolist(), turns.tolist()))
    assert pairs == [(i, t) for i in range(10) for t in range(4)]
    np.testing.assert_array_equal(labels, turns)
    # the same draws as a shuffle of the list of every (image, turn, label) triple
    triples = [(i, t, t) for i in range(10) for t in range(4)]
    reference = [triples[k] for k in np.random.default_rng(0).permutation(len(triples))]
    assert list(zip(index.tolist(), turns.tolist(), labels.tolist())) == reference


def test_stream_deterministic():
    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    assert same(orientation_stream(7, seed=4), orientation_stream(7, seed=4))
    assert not same(orientation_stream(7, seed=4), orientation_stream(7, seed=5))


def test_orientation_config_has_four_classes():
    cfg = config_for_orientation(ModelConfig())
    assert cfg.num_classes == 4
    assert cfg.branch_a_dim == 66


def test_correct_orientation_requires_pose_model():
    model = FusionNet(ModelConfig(num_classes=6), seed=0)
    img = load_img_stub()
    with pytest.raises(ValueError, match="4 output"):
        correct_orientation(model, img[None])


def load_img_stub():
    rng = np.random.default_rng(0)
    return rng.integers(0, 255, size=(32, 32), dtype=np.uint8)


def test_correct_orientation_confidence_and_inverse():
    # untrained model: prediction is arbitrary but the contract still holds
    model = FusionNet(ModelConfig(num_classes=4), seed=1)
    img = load_img_stub()
    [(corrected, detected, confidence)] = correct_orientation(model, img[None])
    assert 0.0 <= confidence <= 1.0
    assert type(detected) is int and 0 <= detected <= 3
    np.testing.assert_array_equal(corrected, rotate(img, -detected))
    np.testing.assert_array_equal(rotate(corrected, detected), img)


@pytest.fixture(scope="module")
def pose_model(tiny_dataset):
    t = TrainConfig(epochs=4, batch_size=32, seed=13)
    model, _ = train_orient(training_set(tiny_dataset, t), ModelConfig(), t)
    return model


def test_trained_model_restores_rotated_images(tiny_dataset, pose_model):
    model = pose_model
    assert model.config.num_classes == 4

    hits = 0
    total = 0
    exact = 0
    for e in tiny_dataset.entries[::5]:
        img = load_pgm(tiny_dataset.resolve(e))
        for turns in range(4):
            posed = rotate(img, turns)
            [(fixed, detected, _)] = correct_orientation(model, posed[None])
            total += 1
            if detected == turns:
                hits += 1
                np.testing.assert_array_equal(fixed, img)  # lossless quarter turns: exact restore
                exact += 1
    assert hits == exact
    assert hits / total > 0.5  # the tiny run already learns the pose cue


def test_train_orient_deterministic(tiny_dataset):
    t = TrainConfig(epochs=1, batch_size=32, seed=8)
    model1, _ = train_orient(training_set(tiny_dataset, t), ModelConfig(), t)
    model2, _ = train_orient(training_set(tiny_dataset, t), ModelConfig(), t)
    for name in model1.params:
        np.testing.assert_array_equal(model1.params[name], model2.params[name])


def test_batched_correction_matches_single_image_calls(tiny_dataset, pose_model):
    posed = np.stack([
        rotate(load_pgm(tiny_dataset.resolve(e)), i % 4)
        for i, e in enumerate(tiny_dataset.entries[::3])
    ])
    batched = correct_orientation(pose_model, posed)
    assert len(batched) == len(posed)
    for img, (fixed, detected, confidence) in zip(posed, batched):
        [(fixed1, detected1, confidence1)] = correct_orientation(pose_model, img[None])
        assert detected == detected1
        np.testing.assert_array_equal(fixed, fixed1)
        # one-row and many-row BLAS kernels round differently
        assert abs(confidence - confidence1) < 1e-5
