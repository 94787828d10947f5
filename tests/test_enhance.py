import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_image, random_image
from dxpipe import enhance
from dxpipe.enhance import (
    MAX_MEDIAN_RADIUS,
    STRIP_PIXELS,
    ClaheParams,
    _median_network,
    chain_stack,
    clahe,
    clip_histogram,
    equalize_lut,
    hist_equalize,
    laplacian,
    median_filter,
    sharpen,
    tile_bounds,
)


def center_spike():
    arr = np.zeros((3, 3), dtype=np.uint8)
    arr[1, 1] = 100
    return arr


def test_laplacian_constant_is_zero():
    assert (laplacian(constant_image(6, 4, 77)) == 0).all()


def test_laplacian_center_spike():
    # direct convolution oracle at the spike and its 4-neighbors
    lap = laplacian(center_spike())
    assert lap[1, 1] == -400
    for r, c in ((0, 1), (1, 0), (1, 2), (2, 1)):
        assert lap[r, c] == 100
    for r, c in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert lap[r, c] == 0


def test_laplacian_linear_ramp_interior_zero():
    ramp = np.tile(np.arange(10, dtype=np.uint8) * 5, (6, 1))
    lap = laplacian(ramp)
    assert (lap[1:-1, 1:-1] == 0).all()


def test_sharpen_constant_unchanged():
    img = constant_image(5, 5, 31)
    np.testing.assert_array_equal(sharpen(img), img)


def test_sharpen_center_spike():
    out = sharpen(center_spike())
    assert out[1, 1] == 255  # clamp(100 + 400)
    for r, c in ((0, 1), (1, 0), (1, 2), (2, 1)):
        assert out[r, c] == 0  # clamp(0 - 100)


def test_median_constant_unchanged():
    img = constant_image(7, 7, 200)
    np.testing.assert_array_equal(median_filter(img, 1), img)
    np.testing.assert_array_equal(median_filter(img, 2), img)


def test_median_sorted_window_oracle():
    window = [11, 12, 12, 12, 13, 13, 14, 200, 255]
    arr = np.array(window, dtype=np.uint8).reshape(3, 3)
    out = median_filter(arr, 1)
    assert out[1, 1] == 13  # sort oracle: median of the window values


def test_median_removes_single_salt_pixel():
    arr = np.zeros((6, 6), dtype=np.uint8)
    arr[3, 2] = 255
    out = median_filter(arr, 1)
    assert (out == 0).all()


def test_median_random_against_sort_oracle():
    rng = np.random.default_rng(4)
    img = random_image(rng, 9, 8)
    arr = img
    out = median_filter(img, 1)
    padded = np.pad(arr, 1, mode="edge")
    for r in range(arr.shape[0]):
        for c in range(arr.shape[1]):
            window = sorted(padded[r : r + 3, c : c + 3].ravel().tolist())
            assert out[r, c] == window[4]


def test_median_clears_sparse_random_impulses():
    rng = np.random.default_rng(14)
    for _ in range(5):
        arr = np.full((30, 30), 70, dtype=np.uint8)
        mask = rng.random(arr.shape) < 0.05  # well under window majority
        arr[mask] = np.where(rng.random(arr.shape) < 0.5, 0, 255).astype(np.uint8)[mask]
        out = median_filter(arr, 1)
        assert (out == 70).all()


@pytest.mark.parametrize("radius", [0, -1, MAX_MEDIAN_RADIUS + 1, 10**9])
def test_median_rejects_a_radius_outside_its_bound(radius):
    # refused before any pixel work: no network is built for such a radius
    message = f"radius must be 1..{MAX_MEDIAN_RADIUS}, got {radius}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        median_filter(constant_image(4, 4, 0), radius)


def test_median_at_the_radius_bound_matches_the_oracle():
    arr = random_image(np.random.default_rng(77), 5, 6)
    out = median_filter(arr, MAX_MEDIAN_RADIUS)
    np.testing.assert_array_equal(out, _median_oracle(arr, MAX_MEDIAN_RADIUS))


def _median_oracle(arr, radius):
    """np.median over every edge-replicated window (a sort oracle)."""
    win = 2 * radius + 1
    padded = np.pad(arr, radius, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (win, win))
    return np.median(windows.reshape(*arr.shape, win * win), axis=2).astype(np.uint8)


_FILLS = {
    "random": lambda rng, shape: rng.integers(0, 256, size=shape, dtype=np.uint8),
    "all0": lambda rng, shape: np.zeros(shape, dtype=np.uint8),
    "all255": lambda rng, shape: np.full(shape, 255, dtype=np.uint8),
    "salt": lambda rng, shape: np.where(rng.random(shape) < 0.5, 0, 255).astype(np.uint8),
}


@pytest.mark.parametrize("fill", sorted(_FILLS))
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 3), (5, 5), (32, 32), (33, 47)])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_median_matches_np_median_oracle(radius, shape, fill):
    rng = np.random.default_rng(radius * 1000 + shape[0] * 50 + shape[1])
    arr = _FILLS[fill](rng, shape)
    out = median_filter(arr, radius)
    np.testing.assert_array_equal(out, _median_oracle(arr, radius))


def test_median_r1_network_selects_median_of_every_binary_window():
    # 0-1 principle: a min/max network that selects the median of every 0/1
    # input selects it for every input.  One 3x3 block per pattern, side by
    # side; each block's centre window is exactly that block.
    bits = (np.arange(512)[:, None] >> np.arange(9)) & 1
    blocks = bits.reshape(512, 3, 3).astype(np.uint8) * 255
    arr = np.concatenate(list(blocks), axis=1)
    out = median_filter(arr, 1)
    expected = np.where(bits.sum(axis=1) >= 5, 255, 0)
    np.testing.assert_array_equal(out[1, 1::3], expected)


def test_median_network_comparator_counts():
    assert [len(_median_network((2 * r + 1) ** 2)) for r in (1, 2, 3)] == [22, 113, 313]


def test_hist_equalize_constant_unchanged():
    img = constant_image(4, 3, 99)
    np.testing.assert_array_equal(hist_equalize(img), img)


def test_hist_equalize_two_pixel_fixture():
    # cdf formula by hand: [0, 255] -> [0, 255]
    img = np.array([[0, 255]], dtype=np.uint8)
    assert hist_equalize(img).tolist() == [[0, 255]]


def test_hist_equalize_monotone():
    rng = np.random.default_rng(5)
    img = random_image(rng, 20, 20)
    a = img.ravel()
    b = hist_equalize(img).ravel()
    order = np.argsort(a, kind="stable")
    assert (np.diff(b[order].astype(np.int32)) >= 0).all()


def test_hist_equalize_full_range_output():
    rng = np.random.default_rng(6)
    img = rng.integers(100, 140, size=(16, 16), dtype=np.uint8)
    out = hist_equalize(img)
    assert out.min() == 0 and out.max() == 255


def test_clip_histogram_redistributes_exactly():
    rng = np.random.default_rng(7)
    hist = rng.integers(0, 50, size=256).astype(np.int64)
    hist[10] = 4000
    clip = 30
    out = clip_histogram(hist, clip)
    assert out.sum() == hist.sum()
    excess = np.maximum(hist - clip, 0).sum()
    assert out.max() <= clip + excess // 256 + 1


def test_clip_histogram_remainder_bin0_upward():
    hist = np.zeros(256, dtype=np.int64)
    hist[100] = 259
    out = clip_histogram(hist, 1)
    # excess 258: +1 to every bin, remainder 2 to bins 0 and 1
    assert out[100] == 1 + 1
    assert out[0] == 2 and out[1] == 2 and out[2] == 1


def test_tile_bounds_cover_extent():
    for extent, tiles in ((32, 8), (33, 8), (7, 3), (5, 5)):
        spans = tile_bounds(extent, tiles)
        assert spans[0][0] == 0 and spans[-1][1] == extent
        assert all(a < b for a, b in spans)
        assert all(spans[i][1] == spans[i + 1][0] for i in range(tiles - 1))


def test_clahe_constant_unchanged():
    img = constant_image(16, 16, 42)
    np.testing.assert_array_equal(clahe(img, ClaheParams(4, 4, 2.0)), img)


def test_clahe_single_tile_huge_clip_equals_hist_equalize():
    rng = np.random.default_rng(8)
    img = random_image(rng, 24, 18)
    out = clahe(img, ClaheParams(1, 1, 1e12))
    np.testing.assert_array_equal(out, hist_equalize(img))


def test_clahe_rejects_oversized_grid():
    with pytest.raises(ValueError, match="tile grid"):
        clahe(constant_image(4, 4, 0), ClaheParams(8, 8, 2.0))


def test_clahe_params_validation():
    with pytest.raises(ValueError, match="clip_factor"):
        ClaheParams(2, 2, 0.5)
    with pytest.raises(ValueError, match="tile grid"):
        ClaheParams(0, 2, 2.0)


def test_clahe_two_tile_toy_against_hand_oracle():
    """Independent pixel-by-pixel recomputation: per-tile histogram, clip,
    redistribution, cdf mapping, and bilinear interpolation between the two
    tile centers."""
    rng = np.random.default_rng(9)
    arr = rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
    p = ClaheParams(tiles_x=2, tiles_y=1, clip_factor=2.0)
    out = clahe(arr, p)

    luts = []
    for x0, x1 in ((0, 8), (8, 16)):
        tile = arr[:, x0:x1]
        hist = np.bincount(tile.ravel(), minlength=256).astype(np.int64)
        if np.count_nonzero(hist) <= 1:
            luts.append(np.arange(256))
            continue
        n = tile.size
        clip = max(1, int(2.0 * n / 256.0))
        clipped = np.minimum(hist, clip)
        excess = int((hist - clipped).sum())
        clipped = clipped + excess // 256
        clipped[: excess % 256] += 1
        cdf = np.cumsum(clipped)
        cdf_min = cdf[np.nonzero(clipped)[0][0]]
        lut = np.floor(255.0 * (cdf - cdf_min) / (n - cdf_min) + 0.5).clip(0, 255)
        luts.append(lut.astype(np.int64))
    centers = [3.5, 11.5]  # (0+8-1)/2 and (8+16-1)/2
    for r in range(4):
        for c in range(16):
            v = int(arr[r, c])
            if c <= centers[0]:
                expected = float(luts[0][v])
            elif c >= centers[1]:
                expected = float(luts[1][v])
            else:
                w = (c - centers[0]) / (centers[1] - centers[0])
                expected = (1 - w) * luts[0][v] + w * luts[1][v]
            assert out[r, c] == int(np.floor(expected + 0.5)), (r, c)


def test_clahe_output_in_range_and_deterministic():
    rng = np.random.default_rng(10)
    img = random_image(rng, 40, 30)
    p = ClaheParams(5, 3, 3.0)
    a = clahe(img, p)
    b = clahe(img, p)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.uint8 and a.shape == (30, 40)


def test_equalize_lut_monotone_nondecreasing():
    rng = np.random.default_rng(11)
    hist = rng.integers(0, 100, size=256).astype(np.int64)
    lut = equalize_lut(hist, int(hist.sum()))
    assert (np.diff(lut.astype(np.int32)) >= 0).all()


def test_chain_constant_unchanged():
    img = constant_image(16, 16, 60)
    np.testing.assert_array_equal(chain_stack(img[None], ClaheParams(2, 2, 2.0), 1)[0], img)


def test_chain_equals_manual_composition():
    rng = np.random.default_rng(12)
    img = random_image(rng, 20, 20)
    p = ClaheParams(2, 2, 2.0)
    manual = clahe(median_filter(sharpen(img), 1), p)
    np.testing.assert_array_equal(chain_stack(img[None], p, 1)[0], manual)


def test_chain_removes_sparse_impulses():
    rng = np.random.default_rng(13)
    base = np.full((24, 24), 40, dtype=np.uint8)
    noisy = base.copy()
    idx = rng.choice(24 * 24, size=8, replace=False)
    noisy.ravel()[idx] = 255
    out = median_filter(sharpen(noisy), 1)
    assert (out == 40).mean() > 0.95


# Whole-image, one-image-at-a-time forms of the stack kernels, kept as
# oracles: each kernel must give the same bytes for every shape, every stack
# and every block size.


def _sharpen_oracle(arr):
    a = arr.astype(np.int32)
    p = np.pad(a, 1, mode="edge")
    lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4 * p[1:-1, 1:-1]
    return np.clip(a - lap, 0, 255).astype(np.uint8)


def _median_network_oracle(arr, radius):
    h, w = arr.shape
    p = np.pad(arr, radius, mode="edge")
    win = 2 * radius + 1
    slots = [p[i : i + h, j : j + w] for i in range(win) for j in range(win)]
    for i, j, keep_lo, keep_hi in _median_network(win * win):
        x, y = slots[i], slots[j]
        if keep_lo:
            slots[i] = np.minimum(x, y)
        if keep_hi:
            slots[j] = np.maximum(x, y)
    return slots[win * win // 2]


def _clip_histogram_oracle(hist, clip):
    hist = np.asarray(hist, dtype=np.int64)
    clipped = np.minimum(hist, clip)
    excess = int((hist - clipped).sum())
    clipped += excess // 256
    clipped[: excess % 256] += 1
    return clipped


def _equalize_lut_oracle(hist, total):
    hist = np.asarray(hist, dtype=np.int64)
    cdf = np.cumsum(hist)
    occupied = np.nonzero(hist)[0]
    if occupied.size == 0:
        return np.arange(256, dtype=np.uint8)
    cdf_min = cdf[occupied[0]]
    if cdf_min == total:
        return np.arange(256, dtype=np.uint8)
    scaled = 255.0 * (cdf - cdf_min) / (total - cdf_min)
    return np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)


def _hist_equalize_oracle(a):
    return _equalize_lut_oracle(np.bincount(a.ravel(), minlength=256), a.size)[a]


def _tile_luts_oracle(a, p):
    """One image's (tiles_y, tiles_x, 256) tile mappings, tile by tile."""
    h, w = a.shape
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
            luts[ty, tx] = _equalize_lut_oracle(_clip_histogram_oracle(hist, clip), n)
    return luts


def _axis_weights(extent, tiles):
    """Per coordinate: (lower tile, upper tile, k, d), the upper tile's
    weight being k / d exactly, from twice the tile centres, one coordinate
    at a time; past the outermost centres the weight is 0 / 1."""
    centres = [s + e - 1 for s, e in tile_bounds(extent, tiles)]
    rows = []
    for c in range(extent):
        t = sum(centre <= 2 * c for centre in centres) - 1  # last centre at or before c
        if t < 0 or t == tiles - 1:
            rows.append((max(t, 0), max(t, 0), 0, 1))
        else:
            rows.append((t, t + 1, 2 * c - centres[t], centres[t + 1] - centres[t]))
    return np.array(rows, dtype=np.int64).T


def _exact_clahe(stack, luts):
    """The exact integer CLAHE interpolation of an (N, H, W) stack given its
    (N, tiles_y, tiles_x, 256) tile mappings, all at once in int64: each
    pixel's bilinear mix is num / den exactly, and floor(num / den + 1/2) =
    (2 num + den) // (2 den)."""
    n, h, w = stack.shape
    y0, y1, ky, dy = (v[:, None] for v in _axis_weights(h, luts.shape[1]))
    x0, x1, kx, dx = _axis_weights(w, luts.shape[2])
    image = np.arange(n)[:, None, None]

    def entry(ty, tx):
        return luts[image, ty, tx, stack].astype(np.int64)

    top = (dx - kx) * entry(y0, x0) + kx * entry(y0, x1)
    bottom = (dx - kx) * entry(y1, x0) + kx * entry(y1, x1)
    num, den = (dy - ky) * top + ky * bottom, dx * dy
    return ((2 * num + den) // (2 * den)).astype(np.uint8)


def _clahe_oracle(a, p):
    """One image's CLAHE from tile-by-tile mappings and the exact oracle."""
    return _exact_clahe(a[None], _tile_luts_oracle(a, p)[None])[0]


# (300, 500): three strips of 131, 131 and 38 rows; (3, 70000): wider than a
# strip, so one row per strip; (70000, 1): two strips, the second short
_STRIP_SHAPES = [(300, 500), (3, 70000), (1, 70001), (70000, 1)]


def _strip_cases(shapes):
    """(shape, strip pixels) pairs: one row per strip whatever the width (1
    px), a few rows per strip (1000 px) and the real size; cases with more
    than 400 strips are left out to keep the tests quick."""
    return [
        pytest.param(shape, pixels, id=f"{shape[0]}x{shape[1]}-{pixels}px")
        for shape in shapes
        for pixels in (1, 1000, STRIP_PIXELS)
        if shape[0] // max(1, pixels // shape[1]) <= 400
    ]


def _strip_input(shape, fill="random"):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    if fill == "checker":
        return (np.indices(shape).sum(axis=0) % 2 * 255).astype(np.uint8)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def test_row_strips_cover_every_row_once():
    shapes = [(1, 1), (300, 500), (3, 70000), (70000, 1), (1024, 1024), (257, 255),
              (32, 32), (48, 48), (1, 1000), (1000, 1), (256, 256), (256, 257)]
    for n in (1, 2, 63, 64, 65):
        for h, w in shapes:
            blocks = list(enhance._blocks(n, h, w))
            seen = np.zeros((n, h), dtype=np.int64)
            for i0, i1, r0, r1 in blocks:
                assert 0 <= i0 < i1 <= n and 0 <= r0 < r1 <= h
                seen[i0:i1, r0:r1] += 1
            assert (seen == 1).all(), (n, h, w)  # every pixel of every image once
            if h * w > STRIP_PIXELS:
                # row strips of one image, as many rows as fit, in order
                rows = max(1, STRIP_PIXELS // w)
                assert all(i1 - i0 == 1 for i0, i1, _, _ in blocks)
                assert [r1 - r0 for _, _, r0, r1 in blocks] == (
                    [rows] * (h // rows) + ([h % rows] if h % rows else [])
                ) * n
            else:
                # whole images, as many as fit, in order
                per = STRIP_PIXELS // (h * w)
                assert enhance.images_per_block(h, w) == per
                assert [(i0, r0, r1) for i0, _, r0, r1 in blocks] == [
                    (i0, 0, h) for i0 in range(0, n, per)
                ]
    assert list(enhance._blocks(1, 32, 32)) == [(0, 1, 0, 32)]
    assert list(enhance._blocks(65, 32, 32)) == [(0, 64, 0, 32), (64, 65, 0, 32)]


def test_strips_are_cache_sized_at_1024_px():
    assert STRIP_PIXELS == 1 << 16
    assert len(list(enhance._blocks(1, 1024, 1024))) == 16
    assert enhance.images_per_block(32, 32) == 64
    assert enhance.images_per_block(1024, 1024) == 1


@pytest.mark.parametrize("fill", ["random", "checker"])
@pytest.mark.parametrize("shape,pixels", _strip_cases(_STRIP_SHAPES))
def test_sharpen_strips_match_whole_image_oracle(monkeypatch, shape, fill, pixels):
    monkeypatch.setattr(enhance, "STRIP_PIXELS", pixels)
    arr = _strip_input(shape, fill)
    out = sharpen(arr)
    assert out.tobytes() == _sharpen_oracle(arr).tobytes()


def test_sharpen_checkerboard_reaches_both_int16_ends(monkeypatch):
    # interior 255 pixels sum to 5*255 = 1275, interior 0 pixels to -4*255
    monkeypatch.setattr(enhance, "STRIP_PIXELS", 64)
    arr = _strip_input((40, 30), "checker")
    p = np.pad(arr.astype(np.int32), 1, mode="edge")
    raw = 5 * p[1:-1, 1:-1] - p[:-2, 1:-1] - p[2:, 1:-1] - p[1:-1, :-2] - p[1:-1, 2:]
    assert raw.max() == 1275 and raw.min() == -1020
    out = sharpen(arr)
    assert out.tobytes() == _sharpen_oracle(arr).tobytes()
    assert (out[1:-1, 1:-1] == arr[1:-1, 1:-1]).all()


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("shape,pixels", _strip_cases(_STRIP_SHAPES))
def test_median_strips_match_whole_image_oracle(monkeypatch, shape, radius, pixels):
    monkeypatch.setattr(enhance, "STRIP_PIXELS", pixels)
    arr = _strip_input(shape)
    out = median_filter(arr, radius)
    assert out.tobytes() == _median_network_oracle(arr, radius).tobytes()


def _grids(shape):
    h, w = shape
    grids = {(min(8, w), min(8, h)), (min(3, w), min(5, h)), (1, 1)}
    if h * w <= 1000:
        grids.add((w, h))  # one tile per pixel
    return sorted(grids)


@pytest.mark.parametrize(
    "shape,pixels,grid",
    [
        pytest.param(*case.values, grid, id=f"{case.id}-tiles{grid[0]}x{grid[1]}")
        for case in _strip_cases(_STRIP_SHAPES + [(23, 37), (1, 900), (900, 1)])
        for grid in _grids(case.values[0])
    ],
)
def test_clahe_strips_match_whole_image_oracle(monkeypatch, shape, grid, pixels):
    monkeypatch.setattr(enhance, "STRIP_PIXELS", pixels)
    arr = _strip_input(shape)
    p = ClaheParams(grid[0], grid[1], 2.0)
    out = clahe(arr, p)
    assert out.tobytes() == _clahe_oracle(arr, p).tobytes()


def test_chain_output_does_not_depend_on_strip_size(monkeypatch):
    arr = _strip_input((300, 500))
    p = ClaheParams(3, 5, 1.5)
    outs = set()
    for pixels in (1, 499, 500, 501, 1000, STRIP_PIXELS, 1 << 20):
        monkeypatch.setattr(enhance, "STRIP_PIXELS", pixels)
        outs.add(chain_stack(arr[None], p, 2)[0].tobytes())
    assert len(outs) == 1
    expected = _clahe_oracle(_median_network_oracle(_sharpen_oracle(arr), 2), p)
    assert outs == {expected.tobytes()}


def test_histogram_rows_match_one_histogram_oracles():
    rng = np.random.default_rng(21)
    hist = rng.integers(0, 40, size=(6, 5, 256)) * (rng.random((6, 5, 256)) < 0.3)
    hist[0, 0] = 0  # empty
    hist[0, 1] = 0
    hist[0, 1, 77] = 500  # one occupied bin
    hist[0, 2] = 0
    hist[0, 2, [0, 255]] = [3, 9]
    hist[1, 0, 5] = 100_000  # a large excess: every bin gets some, plus a remainder
    clip = rng.integers(1, 30, size=(6, 5))
    clipped = clip_histogram(hist, clip)
    totals = hist.sum(axis=-1)
    luts = equalize_lut(clipped, totals)
    for i in np.ndindex(hist.shape[:-1]):
        expected = _clip_histogram_oracle(hist[i], clip[i])
        assert clipped[i].tobytes() == expected.tobytes(), i
        assert luts[i].tobytes() == _equalize_lut_oracle(clipped[i], totals[i]).tobytes(), i
    # the degenerate rule: an empty histogram, or one occupied bin
    assert (equalize_lut(hist[0, :2], totals[0, :2]) == np.arange(256)).all()


def _stack_images(n, shape, seed):
    """n images cycling through four kinds: random; constant; constant on
    4x4 blocks (so 8x8 tiles of 32 px images hold one level each); two
    levels over a constant half."""
    rng = np.random.default_rng(seed)
    h, w = shape
    out = np.empty((n, h, w), dtype=np.uint8)
    for k in range(n):
        kind = k % 4
        if kind == 0:
            out[k] = rng.integers(0, 256, size=shape)
        elif kind == 1:
            out[k] = rng.integers(0, 256)
        elif kind == 2:
            blocks = rng.integers(0, 256, size=(-(-h // 4), -(-w // 4)))
            out[k] = np.repeat(np.repeat(blocks, 4, axis=0), 4, axis=1)[:h, :w]
        else:
            out[k] = rng.integers(0, 2, size=shape) * 200 + 30
            out[k, : h // 2] = 7
    return out


def _per_image(oracle, stack):
    return b"".join(oracle(a).tobytes() for a in stack)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
def test_stack_kernels_match_whole_image_oracles(monkeypatch, n):
    # block sizes: row strips of one image (1000), a few images (4096) and
    # the real 64 images of 32 px; the last block of 63 or 65 images is short
    stack = _stack_images(n, (32, 32), seed=n)
    grids = [(8, 8), (3, 5), (1, 1)] + ([(32, 32)] if n <= 2 else [])
    expected = {
        "sharpen": _per_image(_sharpen_oracle, stack),
        "equalize": _per_image(_hist_equalize_oracle, stack),
        **{f"median{r}": _per_image(lambda a: _median_network_oracle(a, r), stack)
           for r in (1, 2, 3)},
        **{f"clahe{g}": _per_image(lambda a: _clahe_oracle(a, ClaheParams(*g, 1.5)), stack)
           for g in grids},
    }
    for pixels in (1000, 4096, STRIP_PIXELS):
        monkeypatch.setattr(enhance, "STRIP_PIXELS", pixels)
        got = {
            "sharpen": enhance.sharpen_stack(stack).tobytes(),
            "equalize": enhance.equalize_stack(stack).tobytes(),
            **{f"median{r}": enhance.median_stack(stack, r).tobytes() for r in (1, 2, 3)},
            **{f"clahe{g}": enhance.clahe_stack(stack, ClaheParams(*g, 1.5)).tobytes()
               for g in grids},
        }
        for name in expected:
            assert got[name] == expected[name], (name, pixels)


def _equalize_input(shape, fill):
    rng = np.random.default_rng(shape[1] + shape[2])
    if fill == "constant":
        return np.full(shape, 93, dtype=np.uint8)
    if fill == "two-level":
        return np.where(rng.random(shape) < 0.3, 7, 230).astype(np.uint8)
    if fill == "view":  # every other column of a wider stack: not contiguous
        wide = rng.integers(0, 256, size=(*shape[:2], 2 * shape[2]), dtype=np.uint8)
        return wide[:, :, ::2]
    if fill == "fortran":  # column-major: no image's rows are contiguous
        return np.asfortranarray(rng.integers(0, 256, size=shape, dtype=np.uint8))
    if fill == "transposed":  # each image the transpose of a C-ordered one
        return rng.integers(0, 256, size=(shape[0], shape[2], shape[1]), dtype=np.uint8).transpose(0, 2, 1)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


# odd pixel counts: a last pixel outside every pair; the second 1001 x 999
# image starts at an odd byte, so its pairs are unaligned uint16
@pytest.mark.parametrize("fill", ["random", "constant", "two-level", "view", "fortran", "transposed"])
@pytest.mark.parametrize("shape", [(1, 257, 255), (2, 1001, 999), (3, 300, 500)])
@pytest.mark.parametrize("pixels", [1000, STRIP_PIXELS])
def test_equalize_pairs_match_whole_image_oracle(monkeypatch, shape, fill, pixels):
    # with 1000 every image is counted and mapped in pairs, 1000 pairs a
    # strip and a short last strip; with STRIP_PIXELS only the larger ones
    monkeypatch.setattr(enhance, "STRIP_PIXELS", pixels)
    stack = _equalize_input(shape, fill)
    assert enhance.equalize_stack(stack).tobytes() == _per_image(_hist_equalize_oracle, stack)
    img = stack[-1]
    assert enhance.hist_equalize(img.T).tobytes() == _hist_equalize_oracle(img.T).tobytes()


# (64, 64): three images in one block, whose bands interpolate from two
# gathers a band and from a table of the band's pairs; the 3x5 grid divides
# each column by its own tile spacing
@pytest.mark.parametrize("shape", [(48, 48), (64, 64), (1, 1000), (1000, 1), (300, 500)])
def test_stacks_of_odd_shapes_match_whole_image_oracles(shape):
    stack = _stack_images(3, shape, seed=shape[0] + shape[1])
    h, w = shape
    grids = {(min(8, w), min(8, h)), (min(3, w), min(5, h)), (1, 1)}
    if h * w <= 2500:
        grids.add((w, h))  # tiles equal to the extent: one pixel per tile
    for g in sorted(grids):
        p = ClaheParams(*g, 2.0)
        assert enhance.clahe_stack(stack, p).tobytes() == _per_image(
            lambda a: _clahe_oracle(a, p), stack
        ), g
    p = ClaheParams(min(3, w), min(5, h), 1.5)
    for r in (1, 2, 3):
        chain = enhance.chain_stack(stack, p, r)
        assert chain.tobytes() == _per_image(
            lambda a: _clahe_oracle(_median_network_oracle(_sharpen_oracle(a), r), p), stack
        ), r


def test_stack_kernels_refuse_what_is_not_a_uint8_stack():
    for bad in (np.zeros((4, 4), np.uint8), np.zeros((1, 4, 4), np.int16),
                np.zeros((1, 0, 4), np.uint8)):
        with pytest.raises(ValueError, match="uint8 stack"):
            enhance.sharpen_stack(bad)


def _traced_peak(fn):
    import tracemalloc

    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, size, tiles", [(1, 1024, 8), (1, 1000, 8), (1, 1024, 4), (64, 32, 8)])
def test_clahe_allocates_a_few_strips_not_whole_images(n, size, tiles):
    # one int64 strip is STRIP_PIXELS * 8 bytes; the interpolation holds a
    # few uint32 or (4x4 tiles of 1024 px) uint64 ones and an int64 index,
    # and the histogram pass less (its int64 tables for 64 images of 32 px
    # with 8x8 tiles would be 8 MB whole)
    stack = _stack_images(n, (size, size), seed=size)
    p = ClaheParams(tiles, tiles, 2.0)
    outputs = stack.nbytes + n * 64 * 256  # result and tile tables, one byte each
    assert _traced_peak(lambda: enhance.clahe_stack(stack, p)) < outputs + 10 * STRIP_PIXELS * 8


def _stacks_of(pairs):
    runs = []
    enhance.for_each_stack(pairs, lambda keys, stack: runs.append((keys, stack.copy())))
    return runs


def test_for_each_stack_groups_same_shape_images_up_to_a_block():
    per = enhance.images_per_block(32, 32)
    shapes = [(32, 32)] * (per + 1) + [(8, 8), (32, 32)]
    pairs = [(i, np.full(s, i, np.uint8)) for i, s in enumerate(shapes)]
    runs = _stacks_of(pairs)
    assert [keys for keys, _ in runs] == [
        list(range(per)), [per], [per + 1], [per + 2]
    ]
    for keys, stack in runs:
        assert stack.tobytes() == np.stack([pairs[k][1] for k in keys]).tobytes()


def test_for_each_stack_processes_what_was_read_before_a_failure():
    def pairs():
        yield "a", np.zeros((4, 4), np.uint8)
        yield "b", np.ones((4, 4), np.uint8)
        raise OSError("unreadable c")

    runs = []
    with pytest.raises(OSError, match="unreadable c"):
        enhance.for_each_stack(pairs(), lambda keys, stack: runs.append((keys, stack.shape)))
    assert runs == [(["a", "b"], (2, 4, 4))]


def _reference_clahe(stack, p):
    """clahe_stack's result from the exact oracle, all the stack's tile
    mappings computed at once."""
    h, w = stack.shape[1:]
    xs, ys = tile_bounds(w, p.tiles_x), tile_bounds(h, p.tiles_y)
    return _exact_clahe(stack, enhance._tile_luts(stack, xs, ys, p.clip_factor))


@st.composite
def _stacks_and_blocks(draw, heights=st.integers(1, 300), widths=st.integers(1, 300)):
    """(stack, block pixels): 1-3 images of up to 300 x 300 px, random,
    quantized to a few levels, or constant; blocks of one row up to three
    whole images, so that row strips and multi-image blocks both occur."""
    n, h, w = draw(st.integers(1, 3)), draw(heights), draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "quantized", "constant"]))
    if kind == "random":
        stack = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    elif kind == "quantized":
        levels = rng.choice(256, size=draw(st.integers(1, 4)), replace=False)
        stack = levels[rng.integers(0, len(levels), size=(n, h, w))].astype(np.uint8)
    else:
        stack = np.full((n, h, w), draw(st.integers(0, 255)), dtype=np.uint8)
    per_block = draw(st.integers(0, n))  # whole images a block, 0: row strips
    if per_block:
        pixels = per_block * h * w + draw(st.integers(0, h * w - 1))
    else:
        pixels = draw(st.integers(1, max(1, h * w - 1)))
    return stack, pixels


@st.composite
def _clahe_cases(draw):
    """(stack, params, block pixels): _stacks_and_blocks with any grid up
    to 9 x 9, so that blocks start and end inside tile bands, and tile
    centres lie a power of two apart or not."""
    stack, pixels = draw(_stacks_and_blocks())
    h, w = stack.shape[1:]
    tiles_x, tiles_y = draw(st.integers(1, min(9, w))), draw(st.integers(1, min(9, h)))
    return stack, ClaheParams(tiles_x, tiles_y, draw(st.floats(1.0, 5.0))), pixels


@settings(max_examples=200, deadline=None)
@given(case=_clahe_cases())
def test_clahe_bands_match_the_whole_block_reference(case):
    stack, p, pixels = case
    expected = _reference_clahe(stack, p).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enhance, "STRIP_PIXELS", pixels)
        assert enhance.clahe_stack(stack, p).tobytes() == expected


@pytest.mark.parametrize("n, shape, grid, lane, pixels", [
    (1, (1024, 1024), (8, 8), 16, None),  # the default grid at radiograph size: row strips
    (1, (1000, 1000), (8, 8), 16, None),  # centres 125 px apart: a division, not a shift
    (2, (256, 256), (2, 2), 16, None),  # centres 128 px apart: the widest 16-bit lanes take
    (2, (256, 256), (2, 2), 16, 1000),  # row strips of 3 rows
    (2, (258, 258), (2, 2), 32, None),  # centres 129 px apart
    (1, (512, 512), (2, 2), 32, None),
    (1, (1024, 1024), (4, 4), 32, None),
    (1, (600, 40), (3, 2), 32, None),  # tile rows 300 px apart, columns 13 and 14 px
    (65, (32, 32), (2, 2), 16, None),  # 64-image blocks, then one image
    (65, (32, 32), (3, 5), 16, None),  # tiles of 10 and 11 px, 6 and 7 px
    (3, (32, 32), (16, 16), 16, 100),  # row strips of 3 rows
    (3, (32, 32), (1, 1), 16, None),  # one tile: every weight 0
])
def test_clahe_lanes_are_as_wide_as_the_tile_spacing_needs(monkeypatch, n, shape, grid, lane, pixels):
    if pixels is not None:
        monkeypatch.setattr(enhance, "STRIP_PIXELS", pixels)
    stack = _stack_images(n, shape, seed=shape[0] + grid[0])
    p = ClaheParams(*grid, 1.5)
    dtypes = set()
    mix = enhance._mix

    def spy(top, bottom, idx, kx, *args):
        dtypes.add(kx[0].dtype)
        mix(top, bottom, idx, kx, *args)

    monkeypatch.setattr(enhance, "_mix", spy)
    got = enhance.clahe_stack(stack, p).tobytes()
    assert dtypes == {np.dtype(np.uint32 if lane == 16 else np.uint64)}  # two lanes each
    assert got == _reference_clahe(stack, p).tobytes()


@pytest.mark.parametrize("n, size, grid, clip, clahe_digest, chain_digest", [
    (4, 1024, (8, 8), 2.0,
     "835f38abf05004e64c61325bf6eb05f3fbc7765e4986ed9e174ec80e17763cb2",
     "eb1234b90b2faef8bc74df2ba65f597307dcb4879560f6f41c9cab2079e12bf4"),
    (64, 32, (2, 2), 1.5,
     "c555c0d078864c80bbdd2cd6e143a4ac6115fb993f979961a9a0d830fe98f7f2",
     "fcb765a68fa00a0b0994c29583ae336aed80ff5297a00cfd52866ec8223560c2"),
    # tiles of unequal sizes: 8 pixels of each digest differ from the float64
    # interpolation's, which rounded exact .5 ties down
    (64, 32, (3, 5), 1.5,
     "d5fe8bf75c81e8284e66d0b37dd0c87296a16dd49efddd3c53d9d4d443c802eb",
     "5f0a8067d5a8f3bc59aa995827b1d9187fd0b1c87a1b48647db9c39ab7a5b36e"),
])
def test_clahe_and_chain_bytes_are_pinned(n, size, grid, clip, clahe_digest, chain_digest):
    # the power-of-two grids' digests date from before CLAHE interpolated
    # per tile band
    stack = _stack_images(n, (size, size), seed=size)
    p = ClaheParams(*grid, clip)
    assert hashlib.sha256(enhance.clahe_stack(stack, p).tobytes()).hexdigest() == clahe_digest
    assert hashlib.sha256(enhance.chain_stack(stack, p).tobytes()).hexdigest() == chain_digest


@settings(max_examples=60, deadline=None)
@given(case=_stacks_and_blocks())
def test_median_r1_column_sorts_match_the_network(case):
    stack, pixels = case
    expected = _per_image(lambda a: _median_network_oracle(a, 1), stack)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enhance, "STRIP_PIXELS", pixels)
        assert enhance.median_stack(stack, 1).tobytes() == expected


@pytest.mark.parametrize("shape, grid, per_tile", [
    ((64, 63), (1, 1), False),  # 4032 px: below the threshold
    ((64, 64), (1, 1), True),  # 4096 px: at it
    ((65, 64), (1, 1), True),
    ((127, 64), (1, 2), False),  # tiles of 63 and 64 rows: the smaller decides
    ((128, 64), (1, 2), True),
    ((32, 32), (8, 8), False),
    ((1024, 1024), (8, 8), True),
])
def test_tile_histograms_match_the_oracle_on_both_sides_of_the_threshold(
    monkeypatch, shape, grid, per_tile
):
    assert enhance.TILE_BINCOUNT_PIXELS == 4096
    n = 2 if shape[0] > 500 else 5
    stack = _stack_images(n, shape, seed=shape[0] + shape[1])
    h, w = shape
    p = ClaheParams(*grid, 1.5)
    xs, ys = tile_bounds(w, p.tiles_x), tile_bounds(h, p.tiles_y)
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda x, *a, **k: calls.append(x) or bincount(x, *a, **k))
    luts = enhance._tile_luts(stack, xs, ys, p.clip_factor)
    monkeypatch.undo()
    tiles = n * p.tiles_x * p.tiles_y
    # one bincount of its uint8 pixels a tile, or fewer bincounts than tiles
    # of (image, tile, value) indices
    assert sum(x.size for x in calls) == stack.size
    if per_tile:
        assert len(calls) == tiles and all(x.dtype == np.uint8 for x in calls)
    else:
        assert len(calls) < tiles and all(x.dtype != np.uint8 for x in calls)
    for k in range(n):
        assert luts[k].tobytes() == _tile_luts_oracle(stack[k], p).tobytes(), k
