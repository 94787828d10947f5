"""Radiograph enhancement chain: Laplacian sharpening, median filtering,
global histogram equalization, and contrast-limited adaptive histogram
equalization (CLAHE).

All window operations replicate edges, all outputs stay in [0, 255], and
every stage is bit-reproducible (fixed rounding: half away from zero via
floor(x + 0.5)).

Each stage has one kernel over an (N, H, W) uint8 stack of same-shape images;
the single-image functions run it on a stack of one.  A kernel works in
blocks of about STRIP_PIXELS pixels, so that its temporaries stay in cache: a
block is a row strip of one image larger than that, or as many whole smaller
images as fit.  Each output pixel goes through the same integer or
floating-point operations whatever the blocks are, so the output depends
neither on the block size nor on which images share a stack.  Global
equalization counts and maps a larger image in strips of STRIP_PIXELS byte
pairs instead (see _equalize_pairs).

The 3x3 median shares work between neighbouring columns: each block sorts
every padded column's three rows once, and each pixel combines the sorts of
its three columns.  CLAHE counts each tile of at least TILE_BINCOUNT_PIXELS
pixels with a bincount of its own; smaller tiles share one per block.  It
interpolates per tile band: a band is a run of rows that all lie between
the same two tile-row centres.  Each column reads one (left, right) pair of
tiles, so per block and tile row the tables are laid out as (left, right)
entry pairs; each pixel's offset into them is computed once per block, and
each band the block crosses packs the pairs of its two tile rows (one tile
row above the first or below the last tile centre) into one table and
gathers a pixel's four entries from it at once.
Every band interpolates in integers, as Zuiderveld's reference CLAHE does:
a pixel's four entries share one uint32 (a uint64 when tile centres lie
more than 128 px apart), both tile rows are mixed along x at once, a lane
each, and one exact division rounds the mix (see clahe_stack).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# pixels per block: the kernels' block temporaries then fit in L2
STRIP_PIXELS = 1 << 16
# CLAHE tiles of at least this many pixels (16 a bin) get one bincount each
# over their own uint8 pixels; smaller ones share a bincount per block over
# (image, tile, value) indices, as a call per tile would cost more than it counts
TILE_BINCOUNT_PIXELS = 1 << 12
# the largest median radius, a 15x15 window: its pruned network of 2,739
# comparators takes about 0.5 s per megapixel, and each step beyond adds more
# than half again
MAX_MEDIAN_RADIUS = 7


def images_per_block(h: int, w: int) -> int:
    """Whole h x w images per block: max(1, STRIP_PIXELS // (h * w))."""
    return max(1, STRIP_PIXELS // (h * w))


def _blocks(n: int, h: int, w: int):
    """(i0, i1, r0, r1) blocks, rows r0..r1 of images i0..i1, covering every
    pixel of an (n, h, w) stack once: images_per_block(h, w) whole images a
    block, or, for images of more than STRIP_PIXELS pixels, row strips of
    max(1, STRIP_PIXELS // w) rows of one image."""
    if h * w > STRIP_PIXELS:
        step = max(1, STRIP_PIXELS // w)
        for i in range(n):
            for r0 in range(0, h, step):
                yield i, i + 1, r0, min(r0 + step, h)
    else:
        step = images_per_block(h, w)
        for i0 in range(0, n, step):
            yield i0, min(i0 + step, n), 0, h


def _as_stack(stack: np.ndarray) -> np.ndarray:
    a = np.asarray(stack)
    if a.ndim != 3 or a.dtype != np.uint8 or 0 in a.shape[1:]:
        raise ValueError(f"expected an (N, H, W) uint8 stack, got {a.dtype} {a.shape}")
    return a


def _on_image(kernel, img: np.ndarray, *args) -> np.ndarray:
    """A stack kernel applied to one (H, W) image."""
    return kernel(img[None], *args)[0]


def for_each_stack(pairs, process) -> None:
    """Calls process(keys, stack) for each run of consecutive (key, image
    array) pairs of one shape, at most images_per_block(h, w) long: the
    stacks the kernels take.  When reading a pair raises OSError or
    ValueError (a missing or malformed image), the run read before it is
    processed first, so that the outputs before a bad input are written.
    Each run is released before the next but one image is read."""
    keys: list = []
    arrays: list[np.ndarray] = []

    def flush() -> None:
        nonlocal keys, arrays
        if arrays:
            process(keys, arrays[0][None] if len(arrays) == 1 else np.stack(arrays))  # one: a view
            keys, arrays = [], []

    it = iter(pairs)
    while True:
        try:
            key, a = next(it)
        except StopIteration:
            break
        except (OSError, ValueError):
            flush()
            raise
        if arrays and (a.shape != arrays[0].shape or len(arrays) == images_per_block(*a.shape)):
            flush()
        keys.append(key)
        arrays.append(a)
    flush()


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
        if not self.clip_factor >= 1.0:  # also refuses NaN
            raise ValueError(f"clip_factor must be >= 1.0, got {self.clip_factor}")


def laplacian(img: np.ndarray) -> np.ndarray:
    """Discrete 4-neighbor Laplacian, edge-replicated, as signed int32.

    Kernel [[0,1,0],[1,-4,1],[0,1,0]]; output is not clamped.
    """
    a = img.astype(np.int32)
    p = np.pad(a, 1, mode="edge")
    return (
        p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4 * p[1:-1, 1:-1]
    )


def sharpen(img: np.ndarray) -> np.ndarray:
    """Laplacian sharpening: out = clamp(s - lap(s), 0, 255)."""
    return _on_image(sharpen_stack, img)


def sharpen_stack(stack: np.ndarray) -> np.ndarray:
    """sharpen over an (N, H, W) uint8 stack, computed as 5*s - up - down -
    left - right in int16, which is exact: the sum lies in -1020..1275."""
    a = _as_stack(stack)
    p = np.pad(a, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = np.empty_like(a)
    for i0, i1, r0, r1 in _blocks(*a.shape):
        mid = p[i0:i1, r0 + 1 : r1 + 1]
        s = np.multiply(mid[:, :, 1:-1], 5, dtype=np.int16)
        s -= p[i0:i1, r0:r1, 1:-1]
        s -= p[i0:i1, r0 + 2 : r1 + 2, 1:-1]
        s -= mid[:, :, :-2]
        s -= mid[:, :, 2:]
        out[i0:i1, r0:r1] = np.clip(s, 0, 255, out=s)
    return out


def median_filter(img: np.ndarray, radius: int) -> np.ndarray:
    """Exact median over the (2*radius+1)^2 window, edge-replicated."""
    return _on_image(median_stack, img, radius)


def check_median_radius(radius: int, name: str = "radius") -> None:
    """Refuse a radius outside 1..MAX_MEDIAN_RADIUS, calling it name."""
    if not 1 <= radius <= MAX_MEDIAN_RADIUS:
        raise ValueError(f"{name} must be 1..{MAX_MEDIAN_RADIUS}, got {radius}")


def median_stack(stack: np.ndarray, radius: int) -> np.ndarray:
    """median_filter over an (N, H, W) uint8 stack.

    An odd window's median is one of its own pixels, so a network of
    comparators, each an elementwise uint8 np.minimum / np.maximum, selects
    it exactly.  For radius 1, each block sorts every padded column's three
    rows once, on full-width rows; a pixel's median is then the median of
    the max of its three columns' minima, the median of their middles and
    the min of their maxima (18 min/max ops a pixel).  Larger radii run the
    n = (2*radius+1)^2 shifted views of the padded images through Batcher's
    merge-exchange sorting network, pruned to the comparators that the
    middle output depends on; slot n // 2 is the median.
    """
    check_median_radius(radius)
    a = _as_stack(stack)
    w = a.shape[2]
    p = np.pad(a, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    out = np.empty_like(a)
    if radius == 1:
        for i0, i1, r0, r1 in _blocks(*a.shape):
            _median3x3(p[i0:i1, r0 : r1 + 2], out[i0:i1, r0:r1])
        return out
    win = 2 * radius + 1
    network = _median_network(win * win)
    for i0, i1, r0, r1 in _blocks(*a.shape):
        block = p[i0:i1]
        # the views overlap in the pad, so comparators allocate their outputs
        slots = [block[:, r0 + i : r1 + i, j : j + w] for i in range(win) for j in range(win)]
        for i, j, keep_lo, keep_hi in network:
            x, y = slots[i], slots[j]
            if keep_lo:
                slots[i] = np.minimum(x, y)
            if keep_hi:
                slots[j] = np.maximum(x, y)
        out[i0:i1, r0:r1] = slots[win * win // 2]
    return out


def _med3(x: np.ndarray, y: np.ndarray, z: np.ndarray, out=None) -> np.ndarray:
    """Elementwise median of three: max(min(x, y), min(max(x, y), z))."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    np.minimum(hi, z, out=hi)
    return np.maximum(lo, hi, out=out)


def _median3x3(padded: np.ndarray, out: np.ndarray) -> None:
    """Writes into out, (n, h, w), the 3x3 medians of padded, (n, h + 2,
    w + 2).  Each padded column's three rows are sorted into lo <= mid <= hi
    (three comparators), then every pixel takes the median of three column
    sorts: med3(max of the minima, med3 of the middles, min of the maxima)."""
    h = out.shape[1]
    top, centre, bottom = padded[:, :h], padded[:, 1 : h + 1], padded[:, 2:]
    lo, hi = np.minimum(top, centre), np.maximum(top, centre)
    upper = np.maximum(lo, bottom)
    np.minimum(lo, bottom, out=lo)
    mid = np.minimum(hi, upper)
    np.maximum(hi, upper, out=hi)
    # the three column sorts of each window: columns x, x + 1 and x + 2
    low = np.maximum(lo[..., :-2], lo[..., 1:-1])
    np.maximum(low, lo[..., 2:], out=low)
    high = np.minimum(hi[..., :-2], hi[..., 1:-1])
    np.minimum(high, hi[..., 2:], out=high)
    _med3(low, _med3(mid[..., :-2], mid[..., 1:-1], mid[..., 2:]), high, out=out)


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


def equalize_lut(hist: np.ndarray, total) -> np.ndarray:
    """256-entry equalization lookup tables from pixel-count histograms.

    hist is one 256-bin histogram or an array of them, (..., 256), and total
    its pixel count (or one per histogram).  v -> floor(255 * (cdf(v) -
    cdf_min) / (total - cdf_min) + 0.5) where cdf_min is the smallest nonzero
    cdf value.  An empty histogram, or one with a single occupied bin, yields
    the identity table (degenerate rule).
    """
    hist = np.asarray(hist, dtype=np.int64)
    if hist.shape[-1:] != (256,):
        raise ValueError(f"expected 256-bin histograms, got shape {hist.shape}")
    total = np.asarray(total, dtype=np.int64)[..., None]
    cdf = np.cumsum(hist, axis=-1)
    cdf_min = np.take_along_axis(cdf, np.argmax(hist != 0, axis=-1)[..., None], axis=-1)
    degenerate = (cdf[..., -1:] == 0) | (cdf_min == total)
    scaled = 255.0 * (cdf - cdf_min) / np.where(degenerate, 1, total - cdf_min)
    lut = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
    return np.where(degenerate, np.arange(256, dtype=np.uint8), lut)


def hist_equalize(img: np.ndarray) -> np.ndarray:
    """Global histogram equalization; a constant image is returned unchanged."""
    return _on_image(equalize_stack, img)


def equalize_stack(stack: np.ndarray) -> np.ndarray:
    """hist_equalize over an (N, H, W) uint8 stack: each image's histogram
    maps its own pixels.

    An image of more than STRIP_PIXELS pixels is counted and mapped a byte
    pair at a time (_equalize_pairs).  Smaller images share one bincount per
    block over image * 256 + pixel and one gather from their stacked tables."""
    a = _as_stack(stack)
    n, h, w = a.shape
    out = np.empty(a.shape, np.uint8)  # C order, so out[i].reshape(-1) is a view
    if h * w > STRIP_PIXELS:
        for i in range(n):
            _equalize_pairs(np.ascontiguousarray(a[i]).reshape(-1), out[i].reshape(-1))
        return out
    hist = np.zeros((n, 256), dtype=np.int64)
    for i0, i1, r0, r1 in _blocks(n, h, w):
        idx = a[i0:i1, r0:r1] + (np.arange(i1 - i0) * 256)[:, None, None]
        hist[i0:i1] += np.bincount(idx.ravel(), minlength=(i1 - i0) * 256).reshape(-1, 256)
    flat = equalize_lut(hist, h * w).reshape(-1)
    for i0, i1, r0, r1 in _blocks(n, h, w):
        out[i0:i1, r0:r1] = flat[a[i0:i1, r0:r1] + (np.arange(i0, i1) * 256)[:, None, None]]
    return out


def _equalize_pairs(pixels: np.ndarray, out: np.ndarray) -> None:
    """One image's hist_equalize from its contiguous pixels into out, a
    byte pair at a time, so no pass widens a pixel to an 8-byte index.

    The pixels, viewed as uint16, take one 65,536-bin bincount per strip of
    STRIP_PIXELS pairs; folded to 256 bins, a pair counts once for each of
    its bytes, whatever the byte order.  Each pair then maps through one
    65,536-entry table of lut[hi] << 8 | lut[lo], which puts each byte's
    entry back in that byte's place.  An odd last pixel is counted and
    mapped alone.  Strips keep the intp copies that bincount and take make
    of their indices as small as the blocks of the other kernels."""
    even = pixels.size & ~1
    pairs, out_pairs = pixels[:even].view(np.uint16), out[:even].view(np.uint16)
    strips = [slice(p0, p0 + STRIP_PIXELS) for p0 in range(0, pairs.size, STRIP_PIXELS)]
    # no zeroed count array: its 512 KB would be freed, and at glibc's
    # default trim threshold faulted in again, on every call
    counts = np.bincount(pairs[strips[0]], minlength=1 << 16)
    for s in strips[1:]:
        counts += np.bincount(pairs[s], minlength=1 << 16)
    counts = counts.reshape(256, 256)
    hist = counts.sum(axis=0) + counts.sum(axis=1)
    hist[pixels[even:]] += 1
    lut = equalize_lut(hist, pixels.size)
    table = ((lut[:, None].astype(np.uint16) << 8) | lut).reshape(-1)
    for s in strips:
        np.take(table, pairs[s], out=out_pairs[s])
    out[even:] = lut[pixels[even:]]


def tile_bounds(extent: int, tiles: int) -> list[tuple[int, int]]:
    """Near-equal [start, stop) spans partitioning 0..extent into `tiles` runs."""
    if tiles > extent:
        raise ValueError(f"tile count {tiles} exceeds extent {extent}")
    edges = [(t * extent) // tiles for t in range(tiles + 1)]
    return [(edges[t], edges[t + 1]) for t in range(tiles)]


def clip_histogram(hist: np.ndarray, clip) -> np.ndarray:
    """Truncate bins above `clip` and redistribute the excess uniformly.

    hist is one 256-bin histogram or an array of them, (..., 256), and clip
    one threshold or one per histogram.  Single pass: every bin gets excess
    // 256, the remainder goes one count each to bins 0 upward.  Each
    histogram's total count is preserved exactly.
    """
    clip = np.asarray(clip, dtype=np.int64)
    if (clip < 1).any():
        raise ValueError(f"clip threshold must be >= 1, got {clip.min()}")
    hist = np.asarray(hist, dtype=np.int64)
    clipped = np.minimum(hist, clip[..., None])
    excess = (hist - clipped).sum(axis=-1, keepdims=True)
    clipped += excess // 256
    clipped += np.arange(256) < excess % 256
    return clipped


def clahe(img: np.ndarray, p: ClaheParams) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization.

    Per tile: 256-bin histogram, clip at max(1, floor(clip_factor *
    tile_pixels / 256)), redistribute, equalize as in hist_equalize (a
    constant tile keeps the identity mapping).  Output pixels bilinearly
    interpolate between the four surrounding tile mappings; beyond the
    outermost tile centers the edge mapping is replicated.
    """
    return _on_image(clahe_stack, img, p)


def clahe_stack(stack: np.ndarray, p: ClaheParams) -> np.ndarray:
    """clahe over an (N, H, W) uint8 stack, each image with its own tiles.

    Works per block and, within it, per tile band, gathering (left, right)
    table entry pairs (see the module docstring).  A pixel between the
    entries A, B of the tile row above and C, E of the one below, with kx /
    dx and ky / dy the weights of the right and the lower tile (see
    _interp_axis), interpolates to N / D exactly, N = (dy - ky) * ((dx - kx)
    * A + kx * B) + ky * ((dx - kx) * C + kx * E) and D = dx * dy, all
    integers, as in Zuiderveld's reference CLAHE (Graphics Gems IV, 1994).
    Its output is floor(N / D + 0.5) = floor((2N + D) / 2D), computed
    exactly for every grid.

    A pixel's four entries share one unsigned integer, and both tile rows
    are mixed along x at once, one lane each: 16-bit lanes in a uint32
    when no two neighbouring tile centres lie more than 128 px apart (dx, dy
    <= 256: a lane holds at most 255 * 256 = 65280, and 2N + D at most 511 *
    2**16), else 32-bit lanes in a uint64 (which hold 255 * dx for images
    less than 2**23 px a side).  When the tiles along each axis are all one
    size, 2D is one number for the whole image, which numpy divides by
    about as fast as it shifts; else each column has its own.
    """
    a = _as_stack(stack)
    n, h, w = a.shape
    if p.tiles_x > w or p.tiles_y > h:
        raise ValueError(
            f"tile grid {p.tiles_x}x{p.tiles_y} exceeds image {w}x{h}"
        )
    xs = tile_bounds(w, p.tiles_x)
    ys = tile_bounds(h, p.tiles_y)
    luts = _tile_luts(a, xs, ys, p.clip_factor)

    ix0, ix1, kx, dx = _interp_axis(xs)
    iy0, iy1, ky, dy = _interp_axis(ys)
    dtype = np.uint32 if max(dx.max(), dy.max()) <= 256 else np.uint64  # see _mix
    if (dx == dx[0]).all():
        dx = dx[:1]  # one divisor a band, which numpy divides by fastest
    kx = ((dx - kx).astype(dtype), kx.astype(dtype))
    dx = dx.astype(dtype)
    # twice the row weights: the y mix then sums to 2N
    ly = (2 * (dy - ky)).astype(dtype)[:, None], (2 * ky).astype(dtype)[:, None]
    # each column reads one (left, right) tile pair of a tile row: slot
    # ix1 + (ix0 == tiles_x - 1) of its _pair_table
    col = (ix1 + (ix0 == p.tiles_x - 1)) * 256
    # bands: runs of rows with one (iy0, iy1) tile-row pair, and so one dy
    edges = [0, *(np.flatnonzero(np.diff(iy0) | np.diff(iy1)) + 1).tolist(), h]
    bands = list(zip(edges[:-1], edges[1:]))

    out = np.empty_like(a)
    for i0, i1, r0, r1 in _blocks(n, h, w):
        # in a tile row's pair table, (i1 - i0, tiles_x + 1, 256) flat, pixel
        # x of image i0 + j reads entry j * (tiles_x + 1) * 256 + col[x] + value
        offsets = col + (np.arange(i1 - i0) * ((p.tiles_x + 1) * 256))[:, None, None]
        idx = a[i0:i1, r0:r1] + offsets
        held: dict = {}  # the pair tables of the band's tile rows
        for b0, b1 in bands:
            b0, b1 = max(b0, r0), min(b1, r1)
            if b0 >= b1:
                continue
            t0, t1 = iy0[b0], iy1[b0]
            held = {t: held[t] if t in held else _pair_table(luts[i0:i1, t]) for t in (t0, t1)}
            _mix(held[t0], held[t1], idx[:, b0 - r0 : b1 - r0], kx, ly[0][b0:b1],
                 ly[1][b0:b1], dx * dtype(dy[b0]), out[i0:i1, b0:b1])
    return out


def _pair_table(tables: np.ndarray) -> np.ndarray:
    """One tile row's (images, tiles_x, 256) uint8 tables as (left, right)
    entry pairs, (images, tiles_x + 1, 256) flat, one uint16 a pair, left in
    the low byte.  Slot s pairs tiles max(s - 1, 0) and min(s, tiles_x - 1):
    the columns left of the first tile centre read slot 0, those from centre
    k to centre k + 1 slot k + 1, and those from the last centre on slot
    tiles_x."""
    n, tiles_x = tables.shape[:2]
    pairs = np.empty((n, tiles_x + 1, 256, 2), dtype=np.uint8)
    pairs[:, 1:, :, 0] = tables
    pairs[:, 0, :, 0] = tables[:, 0]
    pairs[:, :-1, :, 1] = tables
    pairs[:, -1, :, 1] = tables[:, -1]
    return pairs.view(np.uint16).ravel()


def _mix(top, bottom, idx, kx, l0, l1, d, out) -> None:
    """Writes into out, uint8, floor((2N + D) / 2D) for the entry pairs at
    idx in the _pair_tables of the tile rows above and below (see
    clahe_stack), given the columns' kx = (dx - kx, kx), the rows' l0, l1 =
    2 * (dy - ky), 2 * ky and D = d, the columns' dx times the band's dy,
    all uint32, which hold two 16-bit lanes, or uint64, two 32-bit lanes.

    Each pixel's four entries go in one integer, the top pair in the low
    lane and the bottom pair in the high, gathered from one table of the
    band's pairs.  Both rows are then mixed along x at once, one in each
    lane, which holds at most 255 * dx, so no carry crosses lanes."""
    dtype = kx[0].dtype
    lane = 4 * dtype.itemsize
    quad = bottom.astype(dtype)
    quad <<= lane
    quad |= top
    g = np.take(quad, idx)
    # (A, C) * (dx - kx) + (B, E) * kx, lane by lane
    entries = (0xFF << lane) | 0xFF
    x = np.bitwise_and(g, entries)
    x *= kx[0]
    g >>= 8
    g &= entries
    g *= kx[1]
    x += g
    # 2N + D = top * l0 + bottom * l1 + D, then one exact division
    np.bitwise_and(x, (1 << lane) - 1, out=g)
    g *= l0
    x >>= lane
    x *= l1
    x += g
    x += d
    np.floor_divide(x, 2 * d, out=out, casting="unsafe")


def _tile_luts(a: np.ndarray, xs, ys, clip_factor: float) -> np.ndarray:
    """(N, tiles_y, tiles_x, 256) uint8 tile mappings of an (N, H, W) stack.

    The tables go in blocks of whole images' tables or of runs of tile rows
    of one image.  When every tile holds at least TILE_BINCOUNT_PIXELS
    pixels, each tile's histogram is a bincount of its own uint8 pixels;
    else a block's histograms come from one bincount over (image, tile,
    pixel) indices per pixel block of its rows.  Their rows of 256 are
    clipped (clip_histogram) and equalized (equalize_lut) at once, and a tile
    with at most one occupied level keeps the identity mapping.
    """
    n, h, w = a.shape
    tiles_y, tiles_x = len(ys), len(xs)
    heights = np.array([y1 - y0 for y0, y1 in ys])
    widths = np.array([x1 - x0 for x0, x1 in xs])
    sizes = np.outer(heights, widths)
    limit = clip_factor * sizes / 256.0
    # max(1, floor(limit)), or the tile size once the limit reaches it
    clip = np.maximum(1, np.minimum(limit, sizes).astype(np.int64))
    row = tiles_x * 256  # histogram entries per tile row
    # offset of each pixel's tile histogram in its image's tables: row + col
    row_of = np.repeat(np.arange(tiles_y), heights) * row
    col_of = np.repeat(np.arange(tiles_x), widths) * 256
    luts = np.empty((n, tiles_y, tiles_x, 256), dtype=np.uint8)
    per_tile = sizes.min() >= TILE_BINCOUNT_PIXELS
    # a quarter of STRIP_PIXELS histogram entries per block, as the LUT
    # arithmetic holds several int64 and float64 copies of each entry
    for i0, i1, t0, t1 in _blocks(n, tiles_y, 4 * row):
        if per_tile:
            hist = np.array([
                np.bincount(a[i, y0:y1, x0:x1].ravel(), minlength=256)
                for i in range(i0, i1) for y0, y1 in ys[t0:t1] for x0, x1 in xs
            ])
        else:
            y0, y1 = ys[t0][0], ys[t1 - 1][1]
            hist = np.zeros((i1 - i0) * (t1 - t0) * row, dtype=np.int64)
            for j0, j1, s0, s1 in _blocks(i1 - i0, y1 - y0, w):
                rows = slice(y0 + s0, y0 + s1)
                # image i0 + j's tile row t is row j * (t1 - t0) + t - t0 of the block
                idx = a[i0 + j0 : i0 + j1, rows] + col_of
                idx += row_of[rows, None] + ((np.arange(j0, j1) * (t1 - t0) - t0) * row)[:, None, None]
                hist += np.bincount(idx.ravel(), minlength=hist.size)
        hist = hist.reshape(i1 - i0, t1 - t0, tiles_x, 256)
        lut = equalize_lut(clip_histogram(hist, clip[t0:t1]), sizes[t0:t1])
        lut[np.count_nonzero(hist, axis=-1) <= 1] = np.arange(256, dtype=np.uint8)
        luts[i0:i1, t0:t1] = lut
    return luts


def _interp_axis(bounds):
    """Per coordinate of the axis that the tile spans `bounds` partition:
    (lower tile, upper tile, k, d), the upper tile's weight being k / d,
    exactly.  Between the centres (s0 + e0 - 1) / 2 and (s1 + e1 - 1) / 2
    of neighbouring tiles, coordinate c has k = 2c - (s0 + e0 - 1) and d =
    (s1 + e1) - (s0 + e0), twice its distance from the lower centre and
    twice the centres' distance.  Past the outermost centres the weight is
    0, over the axis' largest d (1 with one tile)."""
    centres = np.array([s + e - 1 for s, e in bounds])  # twice each tile centre
    c = 2 * np.arange(bounds[-1][1])
    j = np.searchsorted(centres, c, side="right") - 1
    i0 = np.clip(j, 0, len(centres) - 1)
    i1 = np.clip(j + 1, 0, len(centres) - 1)
    d = centres[i1] - centres[i0]  # 0 past the outermost centres
    k = np.where(d > 0, c - centres[i0], 0)
    return i0, i1, k, np.where(d > 0, d, max(d.max(), 1))


def enhance_chain(img: np.ndarray, p: ClaheParams, median_radius: int = 1) -> np.ndarray:
    """Full chain: sharpen, then median filter, then CLAHE."""
    return _on_image(chain_stack, img, p, median_radius)


def chain_stack(stack: np.ndarray, p: ClaheParams, median_radius: int = 1) -> np.ndarray:
    """enhance_chain over an (N, H, W) uint8 stack."""
    return clahe_stack(median_stack(sharpen_stack(stack), median_radius), p)
