r"""The one function that writes files, its check that a command writes no
file twice, and the one CSV dialect and ASCII decode of every text artefact.

A CSV file has a header row, minimal quoting and "\n" row ends; a row with
a "\r" in a field has every field quoted.  Readers also take "\r\n" ends.
"""

from __future__ import annotations

import csv
import io
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


def write_atomic(path: Path | str, data: bytes) -> None:
    """Write data to a temporary file beside path (creating missing parent
    directories), remove any old path, then rename the temporary file onto it:
    a failing process leaves the old file, no file or the new file, never a
    partial one.  A write that raises removes the temporary file.  Nothing is
    fsynced, so power loss is not covered.  On ext4, renaming over an existing
    file can be far slower than unlinking it first."""
    parent, name = os.path.split(os.fspath(path))
    parent = parent or "."
    os.makedirs(parent, exist_ok=True)  # a parent spelt "missing/.." is made as the OS walks it
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


def read_ascii(path: Path | str, error: type[ValueError], name: str) -> str:
    """The file's text; bytes that are not ASCII raise error(f"{name}: not ASCII text")."""
    try:
        return Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError:
        raise error(f"{name}: not ASCII text") from None


def csv_text(header, rows) -> str:
    r"""The CSV text of a header row and then rows.  Minimal quoting leaves a
    lone "\r" bare, where a reader ends the row, so a row with one in a field
    has every field quoted."""
    buf = io.StringIO()
    minimal = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in (header, *rows):
        (quoted if any("\r" in str(field) for field in row) else minimal).writerow(row)
    return buf.getvalue()


def csv_records(text: str, error: type[ValueError], name: str, lines_before: int = 0):
    """(line, fields) of each record of CSV text, read strictly: line is the
    physical line that the record ends on, counted from lines_before + 1; a
    blank line has no fields.  Text that is not CSV raises error(f"{name} line ...")."""
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        for fields in reader:
            yield lines_before + reader.line_num, fields
    except csv.Error as exc:
        raise error(f"{name} line {lines_before + reader.line_num}: {exc}") from None
