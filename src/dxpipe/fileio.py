"""The one function that writes files, and the CLI's one-write-per-path rule."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from pathlib import Path

# (st_dev, st_ino, name) of each file written in the open scope, if one is open
_written: ContextVar[set | None] = ContextVar("dxpipe_written", default=None)


@contextmanager
def one_write_per_path():
    """Until the scope ends, a second write_atomic to one file (same name in
    the same directory, however spelled) raises FileExistsError."""
    token = _written.set(set())
    try:
        yield
    finally:
        _written.reset(token)


def refuse_same_file(path: Path | str, outputs) -> None:
    """Raise the rule's FileExistsError at once if path names one of outputs
    (symlinks and '..' resolved), for a command that would otherwise find
    out only when it writes, after its long work."""
    real = os.path.realpath(path)
    if any(os.path.realpath(out) == real for out in outputs):
        raise FileExistsError(f"{path} is written twice by one command")


def write_atomic(path: Path | str, data: bytes) -> None:
    """Write data to a temporary file beside path (creating missing parent
    directories), remove any old path, then rename the temporary file onto it:
    a failing process leaves the old file, no file or the new file, never a
    partial one.  A write that raises removes the temporary file.  Nothing is
    fsynced, so power loss is not covered.  On ext4, renaming over an existing
    file can be far slower than unlinking it first."""
    parent, name = os.path.split(os.fspath(path))
    parent = parent or "."
    try:
        st = os.stat(parent)
    except FileNotFoundError:
        os.makedirs(parent)
        st = os.stat(parent)
    if (written := _written.get()) is not None:
        if (key := (st.st_dev, st.st_ino, name)) in written:
            raise FileExistsError(f"{path} is written twice by one command")
        written.add(key)
    tmp = os.path.join(parent, f".{name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL: never clobber a file of that name; mode 0o666 less the umask,
    # as open(path, "wb") would give the target
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        with suppress(FileNotFoundError):
            os.unlink(path)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
