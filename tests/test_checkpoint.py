import struct

import numpy as np
import pytest

from dxpipe.checkpoint import (
    MAGIC,
    Checkpoint,
    CheckpointError,
    checkpoint_from_model,
    load_checkpoint,
    load_model,
    model_from_checkpoint,
    save_checkpoint,
    save_model,
)
from dxpipe.nnet import FusionNet, ModelConfig


@pytest.fixture
def model():
    return FusionNet(ModelConfig(), seed=9)


def test_round_trip_bit_identical_forward(model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    x = np.random.default_rng(0).random((2, 1, 32, 32)).astype(np.float32)
    a, _ = model.forward(x)
    b, _ = loaded.forward(x)
    np.testing.assert_array_equal(a, b)


def test_round_trip_preserves_config(model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(model, path)
    assert load_checkpoint(path).config == model.config


def test_save_is_deterministic(model, tmp_path):
    save_model(model, tmp_path / "a.bin")
    save_model(model, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_truncated_payload_rejected(model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(MAGIC[:4])
    with pytest.raises(CheckpointError, match="too short"):
        load_checkpoint(path)


def test_unknown_version_rejected(model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, len(MAGIC), 99)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_bad_magic_rejected(model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[0] = 0x58
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_missing_tensor_rejected(model, tmp_path):
    ckpt = checkpoint_from_model(model)
    del ckpt.tensors["head.b"]
    path = tmp_path / "m.bin"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError, match="missing"):
        model_from_checkpoint(load_checkpoint(path))


def test_wrong_shape_rejected(model, tmp_path):
    ckpt = checkpoint_from_model(model)
    ckpt.tensors["head.b"] = np.zeros(3, dtype=np.float32)
    path = tmp_path / "m.bin"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError, match="shape"):
        model_from_checkpoint(load_checkpoint(path))


def test_load_draws_no_random_weights(model, tmp_path, monkeypatch):
    path = tmp_path / "m.bin"
    save_model(model, path)
    monkeypatch.setattr(np.random, "default_rng", None)  # any draw would fail
    loaded = load_model(path)
    for name, arr in model.params.items():
        np.testing.assert_array_equal(loaded.params[name], arr)


def test_orientation_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(num_classes=4)
    model = FusionNet(cfg, seed=1)
    path = tmp_path / "o.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config.num_classes == 4
    x = np.random.default_rng(1).random((1, 1, 32, 32)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(x)[0], loaded.forward(x)[0])


@pytest.mark.parametrize("flag", ["True", "False"])
def test_legacy_full_scale_line_ignored(model, tmp_path, flag):
    # older v1 files carry a full_scale= config line; their dims are authoritative
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = path.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", data, 12)
    meta = data[20 : 20 + meta_len]
    legacy = meta.replace(b"[tensors]\n", f"full_scale={flag}\n[tensors]\n".encode())
    path.write_bytes(data[:12] + struct.pack("<Q", len(legacy)) + legacy + data[20 + meta_len :])
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for name, arr in model.params.items():
        np.testing.assert_array_equal(loaded.tensors[name], arr)


def test_checkpoint_version_field():
    model = FusionNet(ModelConfig(), seed=0)
    ckpt = checkpoint_from_model(model)
    assert isinstance(ckpt, Checkpoint)
    assert ckpt.version == 1
