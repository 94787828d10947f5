import ast
import builtins
import errno
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_image
from dxpipe import cli, fileio
from dxpipe.checkpoint import checkpoint_from_model, save_checkpoint
from dxpipe.image import save_pgm
from dxpipe.metrics import build_report
from dxpipe.nnet import FusionNet, ModelConfig
from dxpipe.synth import DatasetManifest, ManifestEntry, save_manifest
from dxpipe.trainer import EpochStats, TrainLog

SRC = Path(__file__).resolve().parents[1] / "src" / "dxpipe"


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
    entries = [ManifestEntry("x.pgm", 3, 2)]
    save_manifest(DatasetManifest(entries=entries, seed=seed, root=root), root / "m.csv")
    return "m.csv"


def _save_pgm(root, seed):
    save_pgm(constant_image(5, 3, seed), root / "m.pgm")
    return "m.pgm"


def _save_trainlog(root, seed):
    # as the train and orient-train commands write it
    log = TrainLog([EpochStats(0, 1.0, 0.5, 0.25 * seed, 0.01)])
    cli._write_text(root / "trainlog.csv", log.to_csv())
    return "trainlog.csv"


def _save_eval_report(root, seed):
    labels = np.array([0, 1, 1, 0])
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.5 + 0.1 * seed, 0.5 - 0.1 * seed]])
    report = build_report(labels, scores.argmax(axis=1), 2, score_matrix=scores)
    cli._write_text(root / "eval_report.json", report.to_json())
    return "eval_report.json"


@pytest.mark.parametrize(
    "save",
    [_save_checkpoint, _save_manifest, _save_pgm, _save_trainlog, _save_eval_report],
    ids=["checkpoint", "manifest", "pgm", "trainlog", "eval-report"],
)
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


def test_scope_refuses_a_second_write_to_one_file(tmp_path):
    (tmp_path / "sub").mkdir()
    with fileio.one_write_per_path():
        fileio.write_atomic(tmp_path / "f", b"first")
        fileio.write_atomic(tmp_path / "g", b"other")
        with pytest.raises(FileExistsError, match="written twice"):
            fileio.write_atomic(tmp_path / "sub" / ".." / "f", b"second")
    assert (tmp_path / "f").read_bytes() == b"first"
    # nothing survives the scope: a new one, or none, writes again
    with fileio.one_write_per_path():
        fileio.write_atomic(tmp_path / "f", b"second")
    fileio.write_atomic(tmp_path / "f", b"third")
    fileio.write_atomic(tmp_path / "f", b"fourth")
    assert (tmp_path / "f").read_bytes() == b"fourth"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "g", "sub"]


_WRITE_METHODS = {"write_text", "write_bytes"}
_READ_FLAGS = {"os", "O_RDONLY", "O_CLOEXEC", "O_NOFOLLOW", "O_DIRECTORY"}


def _writes(tree):
    """(line, reason) for every call in tree that can write a file."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in _WRITE_METHODS:
            found.append((node.lineno, name))
        elif name == "open" and owner == "os":
            args = node.args[1:] + [kw.value for kw in node.keywords]
            flags = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for arg in args for n in ast.walk(arg)
                     if isinstance(n, (ast.Attribute, ast.Name))}
            if not args or not flags <= _READ_FLAGS:
                found.append((node.lineno, "os.open for writing"))
        elif name == "open":
            # builtins/io open(file, mode), pathlib's path.open(mode)
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if owner in (None, "io") else node.args[:1]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                    found.append((node.lineno, "open with a computed mode"))
                elif set(mode.value) & set("wax+"):
                    found.append((node.lineno, f"open mode {mode.value!r}"))
    return found


def test_only_fileio_writes_files():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"cli.py", "fileio.py", "image.py"}
    offenders = [
        f"{p.name}:{line}: {why}"
        for p in modules
        if p.name != "fileio.py"
        for line, why in _writes(ast.parse(p.read_text(), str(p)))
    ]
    assert offenders == []
    # fileio itself holds the one writer, so the scan must see it there
    assert _writes(ast.parse((SRC / "fileio.py").read_text()))


@pytest.mark.parametrize("code", [
    "p.write_text('x')",
    "Path(p).write_bytes(b'x')",
    "open(p, 'w')",
    "open(p, mode='ab')",
    "open(p, 'r+b')",
    "io.open(p, 'xb')",
    "p.open('w')",
    "open(p, m)",
    "os.open(p, os.O_WRONLY | os.O_CREAT)",
    "os.open(p, flags)",
])
def test_write_scan_sees_each_kind_of_write(code):
    assert _writes(ast.parse(code))


@pytest.mark.parametrize("code", ["open(p)", "open(p, 'rb')", "p.open()", "os.open(p, os.O_RDONLY)",
                                  "p.read_text()", "open(p, newline='')"])
def test_write_scan_passes_reads(code):
    assert _writes(ast.parse(code)) == []


def test_write_atomic_creates_missing_directories(tmp_path):
    fileio.write_atomic(tmp_path / "a" / "b" / "f", b"x")
    assert (tmp_path / "a" / "b" / "f").read_bytes() == b"x"


_FIELDS = st.lists(st.text(st.characters(exclude_characters="\x00"), max_size=6), max_size=4)


@settings(max_examples=300, deadline=None)
@given(header=_FIELDS, rows=st.lists(_FIELDS, max_size=5))
def test_csv_records_read_back_what_csv_text_writes(header, rows):
    records = list(fileio.csv_records(fileio.csv_text(header, rows), ValueError, "t"))
    assert [fields for _, fields in records] == [header, *rows]
    lines = [line for line, _ in records]
    assert lines == sorted(set(lines))


def test_csv_text_quotes_only_the_rows_with_a_carriage_return():
    text = fileio.csv_text(["path", "n"], [["a\rb", 1], ["a\nb", 2], ["a,b", 3], ["ab", 4]])
    assert text == 'path,n\n"a\rb","1"\n"a\nb",2\n"a,b",3\nab,4\n'


def test_csv_records_count_physical_lines_and_name_the_line_of_an_error():
    text = 'h\r\n"a\nb"\n\nc\r"d"e\n'
    records = fileio.csv_records(text, ValueError, "f.csv", lines_before=2)
    assert [next(records) for _ in range(4)] == [(3, ["h"]), (5, ["a\nb"]), (6, []), (7, ["c"])]
    with pytest.raises(ValueError, match=re.escape("f.csv line 8: ',' expected after '\"'")):
        next(records)


def test_only_fileio_speaks_csv():
    users = [p.name for p in sorted(SRC.glob("*.py"))
             if re.search(r"^(import|from) csv\b", p.read_text(), re.M)]
    assert users == ["fileio.py"]
