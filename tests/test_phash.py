import numpy as np
import pytest

from conftest import constant_image, random_image
from dxpipe.image import read_pgm, write_pgm
from dxpipe.phash import _area_resize, _axis_weights, phash
from dxpipe.synth import SynthParams, generate_image


def test_phash_deterministic():
    rng = np.random.default_rng(0)
    img = random_image(rng, 40, 30)
    assert phash(img) == phash(img)


def test_constant_image_hashes_to_zero():
    for v in (0, 50, 255):
        assert phash(constant_image(20, 20, v)) == 0


def test_brightness_shift_small_hamming():
    # no-noise corpus so +10 never clamps; AC structure is shift-invariant
    p = SynthParams(rng_seed=6, noise_impulse_prob=0.0)
    for cid in range(6):
        for seed in range(5):
            img = generate_image(cid, p, seed)
            assert img.max() <= 245
            shifted = (img.astype(np.int16) + 10).clip(0, 255).astype(np.uint8)
            assert (phash(img) ^ phash(shifted)).bit_count() <= 8


def test_phash_survives_pgm_round_trip():
    rng = np.random.default_rng(1)
    img = random_image(rng, 33, 47)
    assert phash(read_pgm(write_pgm(img))) == phash(img)


def test_phash_discriminates_structure():
    p = SynthParams(rng_seed=2, noise_impulse_prob=0.0)
    a = phash(generate_image(0, p, 0))
    b = phash(generate_image(3, p, 0))
    assert (a ^ b).bit_count() > 8


def test_hash_is_a_64_bit_int():
    rng = np.random.default_rng(3)
    for h in (phash(constant_image(4, 4, 9)), phash(random_image(rng, 40, 30))):
        assert type(h) is int and 0 <= h < 2**64


def test_area_resize_identity_at_32():
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    out = _area_resize(arr, 32)
    np.testing.assert_allclose(out, arr.astype(np.float64), atol=1e-9)


def test_area_resize_preserves_mean():
    rng = np.random.default_rng(4)
    arr = rng.integers(0, 256, size=(50, 70)).astype(np.uint8)
    out = _area_resize(arr, 32)
    assert abs(out.mean() - arr.mean()) < 1e-6


# sides of 32 * 2^k take block sums; the others, an upscale from 16 px among
# them, the GEMM itself
@pytest.mark.parametrize("shape", [
    *((32 << k, 32 << k) for k in range(7)),
    (1024, 512), (32, 2048), (2048, 64), (64, 32),
    (16, 16), (96, 96), (1000, 1000), (50, 70), (1024, 1000), (96, 64),
])
def test_area_resize_has_the_bytes_of_the_weight_gemm(shape):
    a = np.random.default_rng(shape[0] * 3 + shape[1]).integers(0, 256, size=shape, dtype=np.uint8)
    for img in (a, np.full(shape, 255, dtype=np.uint8)):  # the largest sums too
        gemm = _axis_weights(32, shape[0]) @ img.astype(np.float64) @ _axis_weights(32, shape[1]).T
        out = _area_resize(img, 32)
        assert out.dtype == np.float64 and out.shape == (32, 32)
        assert out.tobytes() == gemm.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16, np.int64])
def test_area_resize_of_other_dtypes_keeps_the_gemm(dtype):
    # block sums are taken only in uint32 from uint8; a float would not
    # cast and a negative value would wrap
    a = np.random.default_rng(5).integers(-300, 300, size=(64, 128)).astype(dtype)
    gemm = _axis_weights(32, 64) @ a.astype(np.float64) @ _axis_weights(32, 128).T
    assert _area_resize(a, 32).tobytes() == gemm.tobytes()
    u8 = np.abs(a).clip(0, 255).astype(np.uint8)
    assert phash(u8.astype(dtype)) == phash(u8)


@pytest.mark.parametrize("source", [32, 1024, 1, 7, 33, 500, 1000])
def test_axis_weights_cache_matches_uncached_and_is_read_only(source):
    cached = _axis_weights(32, source)
    assert _axis_weights(32, source) is cached  # built once per size pair
    fresh = _axis_weights.__wrapped__(32, source)
    assert fresh is not cached
    assert cached.tobytes() == fresh.tobytes()
    assert not cached.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 1.0

