"""64-bit perceptual hashes from low-frequency DCT structure.

Pipeline: area-average resize to 32x32, orthonormal 2-D DCT-II,
keep the top-left 8x8 coefficient block.  The DC coefficient is zeroed
(overall brightness must not influence the hash), then bit i is set iff
coefficient i exceeds the mean of the 63 non-DC coefficients.  Bits are
packed most-significant-first, so the hex rendering reads in row-major
coefficient order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_RESIZE = 32
_BLOCK = 8


@dataclass(frozen=True)
class PHash:
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 2**64:
            raise ValueError("hash must fit in 64 bits")

    def hex(self) -> str:
        return f"{self.bits:016x}"


def _area_resize(arr: np.ndarray, size: int) -> np.ndarray:
    """Area-weighted downscale/upscale of an (H, W) image to size x size
    (float64): the GEMM _axis_weights(size, h) @ arr @ _axis_weights(size, w).T,
    each output pixel the overlap-weighted mean of the source under it.

    When arr is uint8 and both sides are power-of-two multiples of size,
    every weight is 0 or 1 / 2^k and every partial sum of the GEMM is a
    dyadic rational of at most 53 bits, so the GEMM is exact and equals the
    block sums divided by the block size.  Those are taken in integers
    instead: the row blocks first, along the whole width in uint32, then the
    column blocks; a block of one pixel is the image itself.  Other sizes
    keep the GEMM, whose weights and sums round, and so do other dtypes,
    whose sums a uint32 would not hold exactly."""
    h, w = arr.shape
    sy, sx = h // size, w // size
    exact = h == sy * size and w == sx * size and not (sy & (sy - 1) or sx & (sx - 1))
    if arr.dtype == np.uint8 and exact:
        if sy == sx == 1:
            return arr.astype(np.float64)
        rows = np.add.reduce(arr.reshape(size, sy, w), axis=1, dtype=np.uint32)
        return rows.reshape(size, size, sx).sum(axis=2, dtype=np.uint64) / (sy * sx)
    return _axis_weights(size, h) @ arr.astype(np.float64) @ _axis_weights(size, w).T


@functools.lru_cache(maxsize=16)
def _axis_weights(target: int, source: int) -> np.ndarray:
    """target x source matrix of fractional interval overlaps (rows sum to 1).

    Cached per size pair, as a dataset has few image sizes; bounded, as each
    entry holds target * source floats; read-only, as callers share it."""
    weights = np.zeros((target, source))
    scale = source / target
    for t in range(target):
        lo = t * scale
        hi = (t + 1) * scale
        first = int(np.floor(lo))
        last = min(source, int(np.ceil(hi)))
        for s in range(first, last):
            overlap = min(hi, s + 1) - max(lo, s)
            if overlap > 0:
                weights[t, s] = overlap / scale
    weights.flags.writeable = False
    return weights


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis (rows are frequencies)."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.cos(np.pi * (2 * m + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    d[0] /= np.sqrt(2.0)
    return d


_DCT32 = _dct_matrix(_RESIZE)


_NOISE_FLOOR = 1e-8  # well below any real coefficient, above float64 residue


def phash(img: np.ndarray) -> PHash:
    """The hash of an (H, W) image."""
    small = _area_resize(img, _RESIZE)
    small -= small.mean()  # brightness never influences the hash
    coeffs = _DCT32 @ small @ _DCT32.T
    block = coeffs[:_BLOCK, :_BLOCK].copy()
    block[0, 0] = 0.0
    flat = block.ravel()
    mean_ac = flat[1:].mean()
    bits = 0
    for i, c in enumerate(flat):
        if c > mean_ac + _NOISE_FLOOR:
            bits |= 1 << (63 - i)
    return PHash(bits)


def hamming(a: PHash, b: PHash) -> int:
    """Number of differing bits (0..64)."""
    return (a.bits ^ b.bits).bit_count()
