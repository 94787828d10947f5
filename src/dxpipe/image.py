"""8-bit grayscale images, PGM file I/O, and lossless right-angle transforms.

Everything here is pure: images are immutable values, transforms return new
images, and the binary PGM writer is the canonical on-disk form (round-trips
byte-for-byte).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dxpipe.fileio import write_atomic


class PgmError(ValueError):
    """Raised for malformed, oversized, or truncated PGM data."""


@dataclass(frozen=True)
class Image:
    """Immutable 8-bit grayscale raster, pixels row-major."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dimensions must be >= 1, got {self.width}x{self.height}")
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"pixel buffer length {len(self.pixels)} does not match "
                f"{self.width}x{self.height}"
            )

    def to_array(self) -> np.ndarray:
        """Read-only uint8 view shaped (height, width)."""
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(self.height, self.width)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            raise ValueError(f"expected uint8 pixels, got {arr.dtype}")
        h, w = arr.shape
        return cls(width=w, height=h, pixels=np.ascontiguousarray(arr).tobytes())


@dataclass(frozen=True)
class Rotation:
    """Clockwise rotation by a whole number of quarter turns (canonical mod 4)."""

    quarter_turns: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "quarter_turns", self.quarter_turns % 4)

    def inverse(self) -> "Rotation":
        return Rotation((4 - self.quarter_turns) % 4)

    def __int__(self) -> int:
        return self.quarter_turns


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


def read_pgm(data: bytes) -> Image:
    """Decode a binary (P5) or ASCII (P2) PGM byte string with maxval <= 255.
    Header numbers and P2 pixels must be ASCII decimal digits, and no pixel
    may exceed maxval."""
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
        if maxval < 255:  # a byte cannot exceed 255
            above = np.flatnonzero(np.frombuffer(payload, dtype=np.uint8) > maxval)
            if above.size:
                raise PgmError(f"malformed PGM pixel value {payload[above[0]]} (maxval {maxval})")
        return Image(width=width, height=height, pixels=payload)

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
    return Image(width=width, height=height, pixels=bytes(values))


def write_pgm(img: Image) -> bytes:
    """Encode as canonical binary PGM (P5, maxval 255)."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels


def load_pgm(path) -> Image:
    """The PGM file at path; a malformed one raises PgmError naming it."""
    with open(path, "rb") as fh:
        try:
            return read_pgm(fh.read())
        except PgmError as exc:
            raise PgmError(f"{path}: {exc}") from None


def load_pgms(paths) -> list[Image]:
    """The PGM files at paths, which must all be of the first one's size;
    the first file of another size is refused by name."""
    images = []
    for path in paths:
        img = load_pgm(path)
        if images and (img.width, img.height) != (images[0].width, images[0].height):
            raise ValueError(
                f"{path}: image is {img.width}x{img.height}, "
                f"expected {images[0].width}x{images[0].height} like the images before it"
            )
        images.append(img)
    return images


def save_pgm(img: Image, path) -> None:
    write_atomic(path, write_pgm(img))


def rotate(img: Image, r: Rotation) -> Image:
    """Rotate clockwise by r quarter turns.

    One turn maps input pixel (row, col) of an HxW image to
    (col, H-1-row) of the WxH output; further turns compose this map.
    """
    k = int(r) % 4
    if k == 0:
        return img
    arr = np.rot90(img.to_array(), k=-k)
    return Image.from_array(np.ascontiguousarray(arr))


def rotate_array(arr: np.ndarray, quarter_turns: int) -> np.ndarray:
    """Array-level clockwise quarter-turn rotation (same mapping as rotate)."""
    k = quarter_turns % 4
    if k == 0:
        return arr
    return np.ascontiguousarray(np.rot90(arr, k=-k))


def flip_horizontal(img: Image) -> Image:
    """Mirror left-right: column c maps to column width-1-c."""
    return Image.from_array(np.ascontiguousarray(np.fliplr(img.to_array())))
