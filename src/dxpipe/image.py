"""8-bit grayscale images as (H, W) uint8 arrays: PGM file I/O and lossless
quarter-turn rotation.

The reader returns read-only arrays over the file's pixel bytes, the images
a model reads are one (N, S, S) stack of its input size S, and the binary
PGM writer is the canonical on-disk form (round-trips byte-for-byte).
"""

from __future__ import annotations

import numpy as np

from dxpipe.fileio import write_atomic


class PgmError(ValueError):
    """Raised for malformed, oversized, or truncated PGM data."""


_WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in (b"#",):
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise PgmError("malformed PGM header: unexpected end of data")
    return data[start:pos], pos


def _number(tok: bytes, what: str) -> int:
    """tok as an int; only ASCII decimal digits make a number."""
    if tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            pass
    raise PgmError(f"malformed PGM {what} {tok!r}")


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, pos = _next_token(data, pos)
    return _number(tok, f"header: bad {what}"), pos


def read_pgm(data: bytes) -> np.ndarray:
    """Decode a binary (P5) or ASCII (P2) PGM byte string with maxval <= 255
    into a read-only (H, W) uint8 array.  Header numbers and P2 pixels must
    be ASCII decimal digits, and no pixel may exceed maxval."""
    data = bytes(data)
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"malformed PGM header: unknown magic {magic!r}")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"malformed PGM header: bad dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"unsupported PGM maxval {maxval} (must be <= 255)")
    if maxval < 1:
        raise PgmError(f"malformed PGM header: bad maxval {maxval}")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
            raise PgmError("malformed PGM header: missing raster separator")
        pos += 1
        payload = data[pos : pos + count]
        if len(payload) < count:
            raise PgmError(
                f"truncated PGM payload: expected {count} bytes, got {len(payload)}"
            )
        pixels = np.frombuffer(payload, dtype=np.uint8)
        if maxval < 255:  # a byte cannot exceed 255
            above = np.flatnonzero(pixels > maxval)
            if above.size:
                raise PgmError(f"malformed PGM pixel value {pixels[above[0]]} (maxval {maxval})")
        return pixels.reshape(height, width)

    # each pixel takes a separator and a digit: refuse a header whose count
    # the data cannot hold before allocating for it
    if 2 * count > len(data) - pos:
        raise PgmError(
            f"truncated PGM payload: expected {count} pixels in {len(data) - pos} bytes"
        )
    values = bytearray(count)
    for i in range(count):
        try:
            tok, pos = _next_token(data, pos)
        except PgmError:
            raise PgmError(
                f"truncated PGM payload: expected {count} pixels, got {i}"
            ) from None
        v = _number(tok, "pixel")
        if v > maxval:
            raise PgmError(f"malformed PGM pixel value {v} (maxval {maxval})")
        values[i] = v
    return np.frombuffer(bytes(values), dtype=np.uint8).reshape(height, width)


def write_pgm(img: np.ndarray) -> bytes:
    """Encode a non-empty (H, W) uint8 array as canonical binary PGM (P5,
    maxval 255)."""
    if not (isinstance(img, np.ndarray) and img.ndim == 2 and img.dtype == np.uint8 and img.size):
        what = f"{img.dtype} {img.shape}" if isinstance(img, np.ndarray) else type(img).__name__
        raise ValueError(f"expected a non-empty (H, W) uint8 array, got {what}")
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()


def load_pgm(path) -> np.ndarray:
    """The PGM file at path; a malformed one raises PgmError naming it."""
    with open(path, "rb") as fh:
        try:
            return read_pgm(fh.read())
        except PgmError as exc:
            raise PgmError(f"{path}: {exc}") from None


def load_pgms(paths, side: int) -> np.ndarray:
    """The (N, side, side) stack of the PGM files at paths (at least one), as
    a model of that input size reads them; the first file of another size is
    refused by name before any later file is read."""
    images = []
    for path in paths:
        img = load_pgm(path)
        if img.shape != (side, side):
            h, w = img.shape
            raise ValueError(f"{path}: image is {w}x{h}, but the model takes {side}x{side} input")
        images.append(img)
    return np.stack(images)


def save_pgm(img: np.ndarray, path) -> None:
    write_atomic(path, write_pgm(img))


def rotate(img: np.ndarray, quarter_turns: int) -> np.ndarray:
    """Rotate clockwise by quarter_turns (any int, taken mod 4); no turn
    returns img itself.

    One turn maps input pixel (row, col) of an HxW image to
    (col, H-1-row) of the WxH output; further turns compose this map.
    """
    k = quarter_turns % 4
    if k == 0:
        return img
    return np.ascontiguousarray(np.rot90(img, k=-k))


# The per-layer list in BENCHMARK.json names image.rotate_array as well as
# image.rotate: without either name, `perfbench/run.py --trace 1` raises
# KeyError. The alias goes when that list drops the name (ROADMAP item 1).
rotate_array = rotate
