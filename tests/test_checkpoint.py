import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_image
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
from dxpipe.cli import run
from dxpipe.image import save_pgm
from dxpipe.nnet import MAX_PARAMS, FusionNet, ModelConfig, param_shapes


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


def test_loading_a_model_holds_the_file_and_one_copy_of_its_tensors(model, tmp_path):
    import tracemalloc

    path = tmp_path / "m.bin"
    save_model(model, path)
    tracemalloc.start()
    try:
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the bytes read and the model's float32 parameters; one more copy of
    # the tensors would reach 3x
    assert peak < 2.5 * path.stat().st_size


def test_saving_a_checkpoint_holds_one_copy_of_its_tensors(model, tmp_path):
    import tracemalloc

    ckpt = checkpoint_from_model(model)
    path = tmp_path / "m.bin"
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes, joined straight from the tensors; a bytes copy of each
    # tensor beside them would reach 2x
    assert peak < 1.5 * path.stat().st_size


def test_saving_a_model_holds_one_copy_of_its_tensors(model, tmp_path):
    import tracemalloc

    path = tmp_path / "m.bin"
    tracemalloc.start()
    try:
        save_model(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes, joined straight from the model's own parameters; a
    # copy of them for the checkpoint record would reach 2x
    assert peak <= 1.5 * path.stat().st_size


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


def _edit_meta(data: bytes, pattern: bytes, new: bytes) -> bytes:
    """data with the first match of pattern in its metadata block replaced by
    new, and the metadata length field updated to match."""
    (meta_len,) = struct.unpack_from("<Q", data, 12)
    meta, n = re.subn(pattern, new, data[20 : 20 + meta_len], count=1)
    assert n == 1
    return data[:12] + struct.pack("<Q", len(meta)) + meta + data[20 + meta_len :]


def _payload_len(data: bytes) -> int:
    (meta_len,) = struct.unpack_from("<Q", data, 12)
    return len(data) - 20 - meta_len


@pytest.mark.parametrize("flag", ["True", "False"])
def test_legacy_full_scale_line_ignored(model, tmp_path, flag):
    # older v1 files carry a full_scale= config line; their dims are authoritative
    path = tmp_path / "m.bin"
    save_model(model, path)
    path.write_bytes(
        _edit_meta(path.read_bytes(), rb"\[tensors\]\n", f"full_scale={flag}\n[tensors]\n".encode())
    )
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for name, arr in model.params.items():
        np.testing.assert_array_equal(loaded.tensors[name], arr)


def test_an_integer_dropout_rate_is_written_as_the_float_it_loads_as(tmp_path):
    config = ModelConfig(16, 2, 2, 2, dropout_rate=0)
    save_model(FusionNet(config, seed=0), tmp_path / "m.bin")
    assert b"\ndropout_rate=0.0\n" in (tmp_path / "m.bin").read_bytes()
    assert load_checkpoint(tmp_path / "m.bin").config == config


_HOSTILE = {
    "overlapping-offsets": (
        lambda d: _edit_meta(d, rb"head\.b=6@\d+", b"head.b=6@0"), "head.b at payload offset 0"
    ),
    "negative-offset": (
        lambda d: _edit_meta(d, rb"head\.b=6@\d+", b"head.b=6@-4"), "head.b at payload offset -4"
    ),
    "trailing-payload": (lambda d: d + bytes(4), "bytes past the last tensor"),
    "non-utf8-metadata": (lambda d: _edit_meta(d, rb"fusion_dim=", b"fusion_dim=\xff"), "UTF-8"),
    "missing-config-key": (
        lambda d: _edit_meta(d, rb"input_size=\d+\n", b""), r"missing config keys \['input_size'\]"
    ),
    "non-integer-config-value": (
        lambda d: _edit_meta(d, rb"fusion_dim=128", b"fusion_dim=12.8"), "bad config value"
    ),
    # numbers that int() and float() take but save_checkpoint never writes
    "signed-config-int": (
        lambda d: _edit_meta(d, rb"input_size=32", b"input_size=+32"),
        r"bad config value 'input_size=\+32'",
    ),
    "non-ascii-config-digits": (
        lambda d: _edit_meta(d, rb"input_size=32", "input_size=\u0663\u0662".encode()),
        "bad config value 'input_size=\u0663\u0662'",
    ),
    "underscored-config-int": (
        lambda d: _edit_meta(d, rb"input_size=32", b"input_size=3_2"),
        r"bad config value 'input_size=3_2'",
    ),
    "underscored-dropout-rate": (
        lambda d: _edit_meta(d, rb"dropout_rate=0\.5", b"dropout_rate=0.5_0"),
        r"bad config value 'dropout_rate=0\.5_0'",
    ),
    "spaced-tensor-dim": (
        lambda d: _edit_meta(d, rb"head\.w=6,128@", b"head.w= 6,128@"),
        r"bad tensor line 'head\.w= 6,128@\d+'",
    ),
    "unknown-config-key": (
        lambda d: _edit_meta(d, rb"fusion_dim=", b"fusion_dlm="),
        r"corrupt checkpoint: unknown config key 'fusion_dlm'",
    ),
    # refused from the config alone, before any tensor is read or allocated
    "config-above-the-parameter-bound": (
        lambda d: _edit_meta(d, rb"fusion_dim=128", b"fusion_dim=10000000000000"),
        rf"corrupt checkpoint: the model has \d+ parameters, more than {MAX_PARAMS}$",
    ),
    "config-disagrees-with-tensor-shapes": (
        lambda d: _edit_meta(d, rb"num_classes=6", b"num_classes=7"),
        r"checkpoint tensor head\.[wb] has shape \(6",
    ),
    "extra-tensor": (
        lambda d: _edit_meta(d, rb"\Z", f"extra.w=2@{_payload_len(d)}\n".encode()) + bytes(8),
        r"unexpected tensors: \['extra\.w'\]",
    ),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE))
def test_hostile_checkpoint_is_one_error_line(model, tmp_path, capsys, name):
    make, message = _HOSTILE[name]
    path = tmp_path / "m.bin"
    save_model(model, path)
    path.write_bytes(make(path.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_model(path)
    image = tmp_path / "x.pgm"
    save_pgm(constant_image(32, 32, 9), image)
    capsys.readouterr()
    code = run(["--out-dir", str(tmp_path / "out"), "predict", "--checkpoint", str(path), str(image)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ") and "checkpoint" in err
    assert not (tmp_path / "out").exists()


def test_checkpoint_errors_name_the_file(model, tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: corrupt checkpoint: bad magic")):
        load_model(path)
    # a renamed tensor passes load_checkpoint, and model_from_checkpoint refuses it
    save_model(model, path)
    path.write_bytes(_edit_meta(path.read_bytes(), rb"head\.b=", b"head.x="))
    load_checkpoint(path)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: checkpoint missing tensors")):
        load_model(path)


_SMALL = ModelConfig(input_size=16, branch_a_dim=3, branch_b_dim=2, fusion_dim=4, num_classes=2)
_TOKENS = [b"", b"0", b"1", b"9", b"-", b",", b"@", b"=", b"\n", b".", b"[", b"]", b"x", b"\xff"]


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "small.bin"
    save_model(FusionNet(_SMALL, seed=1), path)
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_header_or_metadata_loads_or_raises_checkpoint_error(small_file, data):
    path, original = small_file
    (meta_len,) = struct.unpack_from("<Q", original, 12)
    head, payload = bytearray(original[: 20 + meta_len]), original[20 + meta_len :]
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(head)))
        cut = data.draw(st.integers(0, 3))
        head[i : i + cut] = data.draw(st.sampled_from(_TOKENS) | st.binary(max_size=3))
    if len(head) >= 20 and data.draw(st.booleans()):
        # keep the length field true, so that the edited metadata gets parsed
        struct.pack_into("<Q", head, 12, len(head) - 20)
    path.write_bytes(bytes(head) + payload)
    try:
        load_model(path)
    except CheckpointError as exc:
        assert str(exc).startswith(f"{path}: ") and "checkpoint" in str(exc)


@settings(max_examples=50, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 4)] * 4),
    input_size=st.integers(16, 21),
    dropout=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_save_then_load_round_trips_exactly(small_file, dims, input_size, dropout, seed):
    path = small_file[0].with_name("round_trip.bin")
    config = ModelConfig(input_size, *dims, dropout_rate=dropout)
    rng = np.random.default_rng(seed)
    tensors = {  # any float32 bit pattern, NaNs and -0.0 included
        name: np.frombuffer(rng.bytes(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        for name, shape in param_shapes(config).items()
    }
    save_checkpoint(Checkpoint(config, tensors), path)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert list(loaded.tensors) == sorted(tensors)
    for name, arr in tensors.items():
        assert loaded.tensors[name].dtype == np.float32
        assert loaded.tensors[name].tobytes() == arr.tobytes()
    model_from_checkpoint(loaded)
