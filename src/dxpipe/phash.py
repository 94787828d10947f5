"""64-bit perceptual hashes from low-frequency DCT structure.

Pipeline: exact area-average resize to 32x32, orthonormal 2-D DCT-II,
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
    """Exact area-weighted downscale/upscale to size x size (float64)."""
    h, w = arr.shape
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
