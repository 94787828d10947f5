"""Whole-file writes that never leave a partly written target."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: Path | str, data: bytes) -> None:
    """Write data to a temporary file beside path, then os.replace it onto
    path, so path never holds a partial write.  A write that raises leaves
    an existing target as it was and removes the temporary file; a killed
    process may leave the temporary file behind.  Nothing is fsynced: this
    guards against a failing process, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL: never clobber a file of that name; mode 0o666 less the umask,
    # as open(path, "wb") would give the target
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
