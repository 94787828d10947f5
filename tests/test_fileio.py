import builtins
import errno

import pytest

from dxpipe import fileio
from dxpipe.checkpoint import checkpoint_from_model, save_checkpoint
from dxpipe.image import Rotation
from dxpipe.nnet import FusionNet, ModelConfig
from dxpipe.synth import DatasetManifest, ManifestEntry, save_manifest


class _HalfWrite:
    """A file that writes half of what it is given, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _save_checkpoint(root, seed):
    save_checkpoint(checkpoint_from_model(FusionNet(ModelConfig(), seed=seed)), root / "m.bin")
    return "m.bin"


def _save_manifest(root, seed):
    entries = [ManifestEntry("x.pgm", 3, Rotation(2))]
    save_manifest(DatasetManifest(entries=entries, seed=seed, root=root), root / "m.csv")
    return "m.csv"


@pytest.mark.parametrize("save", [_save_checkpoint, _save_manifest], ids=["checkpoint", "manifest"])
def test_failed_write_keeps_target_and_leaves_no_temporary(tmp_path, monkeypatch, save):
    name = save(tmp_path, 1)
    before = (tmp_path / name).read_bytes()
    monkeypatch.setattr(
        fileio, "open", lambda *a, **k: _HalfWrite(builtins.open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        save(tmp_path, 2)
    assert (tmp_path / name).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]
    monkeypatch.undo()
    save(tmp_path, 2)
    assert (tmp_path / name).read_bytes() != before


def test_write_atomic_replaces_with_the_mode_open_gives(tmp_path):
    path = tmp_path / "f"
    fileio.write_atomic(path, b"first")
    fileio.write_atomic(path, b"second")
    assert path.read_bytes() == b"second"
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "plain"]
