"""Radiograph enhancement chain: Laplacian sharpening, median filtering,
global histogram equalization, and contrast-limited adaptive histogram
equalization (CLAHE).

All window operations replicate edges, all outputs stay in [0, 255], and
every stage is bit-reproducible (fixed rounding: half away from zero via
floor(x + 0.5)).

Sharpening, the median filter and CLAHE's interpolation run in row strips
of about STRIP_PIXELS pixels, so that their temporaries stay in cache.  Each
output pixel goes through the same integer or floating-point operations
whatever the strip size, so the output does not depend on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from dxpipe.image import Image

# pixels per row strip: the kernels' strip temporaries then fit in L2
STRIP_PIXELS = 1 << 16


def _row_strips(h: int, w: int):
    """[r0, r1) runs of max(1, STRIP_PIXELS // w) rows covering 0..h."""
    step = max(1, STRIP_PIXELS // w)
    for r0 in range(0, h, step):
        yield r0, min(r0 + step, h)


@dataclass(frozen=True)
class ClaheParams:
    """Tile grid and clip-limit multiplier for CLAHE.

    clip_factor scales the uniform-histogram bin height (tile_pixels / 256);
    the effective integer clip threshold is max(1, floor(clip_factor *
    tile_pixels / 256)).
    """

    tiles_x: int = 8
    tiles_y: int = 8
    clip_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.tiles_x < 1 or self.tiles_y < 1:
            raise ValueError(f"tile grid must be >= 1x1, got {self.tiles_x}x{self.tiles_y}")
        if self.clip_factor < 1.0:
            raise ValueError(f"clip_factor must be >= 1.0, got {self.clip_factor}")


def laplacian(img: Image) -> np.ndarray:
    """Discrete 4-neighbor Laplacian, edge-replicated, as signed int32.

    Kernel [[0,1,0],[1,-4,1],[0,1,0]]; output is not clamped.
    """
    a = img.to_array().astype(np.int32)
    p = np.pad(a, 1, mode="edge")
    return (
        p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4 * p[1:-1, 1:-1]
    )


def sharpen(img: Image) -> Image:
    """Laplacian sharpening: out = clamp(s - lap(s), 0, 255).

    Computed as 5*s - up - down - left - right in int16, which is exact: the
    sum lies in -1020..1275.
    """
    a = img.to_array()
    h, w = a.shape
    p = np.pad(a, 1, mode="edge")
    out = np.empty((h, w), dtype=np.uint8)
    for r0, r1 in _row_strips(h, w):
        s = np.multiply(p[r0 + 1 : r1 + 1, 1:-1], 5, dtype=np.int16)
        s -= p[r0:r1, 1:-1]
        s -= p[r0 + 2 : r1 + 2, 1:-1]
        s -= p[r0 + 1 : r1 + 1, :-2]
        s -= p[r0 + 1 : r1 + 1, 2:]
        out[r0:r1] = np.clip(s, 0, 255, out=s)
    return Image.from_array(out)


def median_filter(img: Image, radius: int) -> Image:
    """Exact median over the (2*radius+1)^2 window, edge-replicated.

    An odd window's median is one of its own pixels, so a comparator network
    selects it exactly: the n = (2*radius+1)^2 shifted views of the padded
    image run through Batcher's merge-exchange sorting network, pruned to the
    comparators that the middle output depends on, with each comparator an
    elementwise uint8 np.minimum / np.maximum.  Slot n // 2 is the median.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    a = img.to_array()
    h, w = a.shape
    p = np.pad(a, radius, mode="edge")
    win = 2 * radius + 1
    network = _median_network(win * win)
    out = np.empty((h, w), dtype=np.uint8)
    for r0, r1 in _row_strips(h, w):
        # the views overlap in the pad, so comparators allocate their outputs
        slots = [p[r0 + i : r1 + i, j : j + w] for i in range(win) for j in range(win)]
        for i, j, keep_lo, keep_hi in network:
            x, y = slots[i], slots[j]
            if keep_lo:
                slots[i] = np.minimum(x, y)
            if keep_hi:
                slots[j] = np.maximum(x, y)
        out[r0:r1] = slots[win * win // 2]
    return Image.from_array(out)


def _merge_exchange(n: int) -> list[tuple[int, int]]:
    """Batcher's merge-exchange sorting network for n keys, as (i, j) pairs
    with i < j that put the smaller key in slot i (Knuth, TAOCP vol. 3,
    5.3.4, Algorithm M)."""
    t = (n - 1).bit_length()
    pairs = []
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return pairs


@functools.lru_cache(maxsize=None)
def _median_network(n: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """The merge-exchange comparators that output n // 2 depends on, each as
    (i, j, keep_lo, keep_hi): keep_lo / keep_hi say whether a later kept
    comparator (or the output) reads the min in slot i / the max in slot j."""
    live = {n // 2}
    kept = []
    for i, j in reversed(_merge_exchange(n)):
        keep_lo, keep_hi = i in live, j in live
        if keep_lo or keep_hi:
            kept.append((i, j, keep_lo, keep_hi))
            live |= {i, j}
    return tuple(reversed(kept))


def equalize_lut(hist: np.ndarray, total: int) -> np.ndarray:
    """256-entry equalization lookup table from a pixel-count histogram.

    v -> floor(255 * (cdf(v) - cdf_min) / (total - cdf_min) + 0.5) where
    cdf_min is the smallest nonzero cdf value.  A histogram with a single
    occupied bin yields the identity table (degenerate rule).
    """
    hist = np.asarray(hist, dtype=np.int64)
    if hist.shape != (256,):
        raise ValueError(f"expected a 256-bin histogram, got shape {hist.shape}")
    cdf = np.cumsum(hist)
    occupied = np.nonzero(hist)[0]
    if occupied.size == 0:
        return np.arange(256, dtype=np.uint8)
    cdf_min = cdf[occupied[0]]
    if cdf_min == total:
        return np.arange(256, dtype=np.uint8)
    scaled = 255.0 * (cdf - cdf_min) / (total - cdf_min)
    return np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)


def hist_equalize(img: Image) -> Image:
    """Global histogram equalization; a constant image is returned unchanged."""
    a = img.to_array()
    hist = np.bincount(a.ravel(), minlength=256)
    lut = equalize_lut(hist, a.size)
    return Image.from_array(lut[a])


def tile_bounds(extent: int, tiles: int) -> list[tuple[int, int]]:
    """Near-equal [start, stop) spans partitioning 0..extent into `tiles` runs."""
    if tiles > extent:
        raise ValueError(f"tile count {tiles} exceeds extent {extent}")
    edges = [(t * extent) // tiles for t in range(tiles + 1)]
    return [(edges[t], edges[t + 1]) for t in range(tiles)]


def clip_histogram(hist: np.ndarray, clip: int) -> np.ndarray:
    """Truncate bins above `clip` and redistribute the excess uniformly.

    Single pass: every bin gets excess // 256, the remainder goes one count
    each to bins 0 upward.  Total count is preserved exactly.
    """
    if clip < 1:
        raise ValueError(f"clip threshold must be >= 1, got {clip}")
    hist = np.asarray(hist, dtype=np.int64)
    clipped = np.minimum(hist, clip)
    excess = int((hist - clipped).sum())
    clipped += excess // 256
    remainder = excess % 256
    clipped[:remainder] += 1
    return clipped


def clahe(img: Image, p: ClaheParams) -> Image:
    """Contrast-limited adaptive histogram equalization.

    Per tile: 256-bin histogram, clip at max(1, floor(clip_factor *
    tile_pixels / 256)), redistribute, equalize as in hist_equalize (a
    constant tile keeps the identity mapping).  Output pixels bilinearly
    interpolate between the four surrounding tile mappings; beyond the
    outermost tile centers the edge mapping is replicated.
    """
    a = img.to_array()
    h, w = a.shape
    if p.tiles_x > w or p.tiles_y > h:
        raise ValueError(
            f"tile grid {p.tiles_x}x{p.tiles_y} exceeds image {w}x{h}"
        )
    xs = tile_bounds(w, p.tiles_x)
    ys = tile_bounds(h, p.tiles_y)

    luts = np.empty((p.tiles_y, p.tiles_x, 256), dtype=np.uint8)
    for ty, (y0, y1) in enumerate(ys):
        for tx, (x0, x1) in enumerate(xs):
            tile = a[y0:y1, x0:x1]
            hist = np.bincount(tile.ravel(), minlength=256)
            if np.count_nonzero(hist) <= 1:
                luts[ty, tx] = np.arange(256, dtype=np.uint8)
                continue
            n = tile.size
            limit = p.clip_factor * n / 256.0
            clip = n if limit >= n else max(1, int(limit))
            luts[ty, tx] = equalize_lut(clip_histogram(hist, clip), n)

    cx = np.array([(x0 + x1 - 1) / 2.0 for x0, x1 in xs])
    cy = np.array([(y0 + y1 - 1) / 2.0 for y0, y1 in ys])
    ix0, ix1, wx = _interp_axis(np.arange(w), cx)
    iy0, iy1, wy = _interp_axis(np.arange(h), cy)

    flat = luts.reshape(-1)
    col0, col1 = ix0 * 256, ix1 * 256
    row0, row1 = iy0 * (p.tiles_x * 256), iy1 * (p.tiles_x * 256)
    wx, wy = wx[None, :], wy[:, None]
    out = np.empty((h, w), dtype=np.uint8)
    for r0, r1 in _row_strips(h, w):
        # luts[iy, ix, a] over the strip as one gather from the flat table
        lo, hi = a[r0:r1] + col0, a[r0:r1] + col1
        top0, bot0 = row0[r0:r1, None], row1[r0:r1, None]
        top = _lerp(wx, flat[lo + top0], flat[hi + top0])
        bot = _lerp(wx, flat[lo + bot0], flat[hi + bot0])
        v = _lerp(wy[r0:r1], top, bot)
        v += 0.5
        out[r0:r1] = np.clip(np.floor(v, out=v), 0, 255, out=v)
    return Image.from_array(out)


def _lerp(weight: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(1 - weight) * lo + weight * hi, summed in place."""
    out = (1.0 - weight) * lo
    out += weight * hi
    return out


def _interp_axis(coords: np.ndarray, centers: np.ndarray):
    """Per-coordinate (lower tile, upper tile, weight); clamps past the ends."""
    j = np.searchsorted(centers, coords, side="right") - 1
    i0 = np.clip(j, 0, len(centers) - 1)
    i1 = np.clip(j + 1, 0, len(centers) - 1)
    weight = np.zeros(len(coords))
    interior = (j >= 0) & (j < len(centers) - 1)
    if interior.any():
        lo = centers[i0[interior]]
        hi = centers[i1[interior]]
        weight[interior] = (coords[interior] - lo) / (hi - lo)
    return i0, i1, weight


def enhance_chain(img: Image, p: ClaheParams, median_radius: int = 1) -> Image:
    """Full chain: sharpen, then median filter, then CLAHE."""
    return clahe(median_filter(sharpen(img), median_radius), p)
