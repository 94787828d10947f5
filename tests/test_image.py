import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_image
from dxpipe.image import PgmError, load_pgms, read_pgm, rotate, save_pgm, write_pgm


def test_read_p5_minimal():
    data = b"P5\n3 2\n255\n" + bytes([0, 128, 255, 7, 8, 9])
    img = read_pgm(data)
    assert img.dtype == np.uint8 and img.shape == (2, 3)
    assert img.tolist() == [[0, 128, 255], [7, 8, 9]]


@pytest.mark.parametrize("data", [b"P5\n2 1\n255\n\x01\x02", b"P2\n2 1\n255\n1 2\n"])
def test_read_pgm_returns_a_read_only_array(data):
    img = read_pgm(data)
    assert not img.flags.writeable
    with pytest.raises(ValueError):
        img[0, 0] = 0


def test_p5_round_trip_bytes():
    data = b"P5\n3 2\n255\n" + bytes([9, 8, 7, 6, 5, 4])
    assert write_pgm(read_pgm(data)) == data


def test_image_round_trip():
    img = np.array([[0, 128], [255, 7]], dtype=np.uint8)
    np.testing.assert_array_equal(read_pgm(write_pgm(img)), img)


def test_write_pgm_writes_a_view_in_row_order():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert write_pgm(img.T) == b"P5\n3 4\n255\n" + img.T.tobytes()
    assert write_pgm(img[:, ::2]) == b"P5\n2 3\n255\n" + bytes([0, 2, 4, 6, 8, 10])


@pytest.mark.parametrize(
    "img, message",
    [
        (np.zeros(4, dtype=np.uint8), r"uint8 \(4,\)"),
        (np.zeros((1, 2, 2), dtype=np.uint8), r"uint8 \(1, 2, 2\)"),
        (np.zeros((2, 2), dtype=np.int16), r"int16 \(2, 2\)"),
        (np.zeros((2, 2), dtype=bool), r"bool \(2, 2\)"),
        (np.zeros((0, 3), dtype=np.uint8), r"uint8 \(0, 3\)"),
        (np.zeros((3, 0), dtype=np.uint8), r"uint8 \(3, 0\)"),
        ([[1, 2], [3, 4]], "list"),
        (b"\x00\x01", "bytes"),
    ],
    ids=["1-d", "3-d", "int16", "bool", "no-rows", "no-columns", "list", "bytes"],
)
def test_write_pgm_refuses_anything_but_a_nonempty_2d_uint8_array(img, message, tmp_path):
    expected = r"^expected a non-empty \(H, W\) uint8 array, got "
    with pytest.raises(ValueError, match=expected + message):
        write_pgm(img)
    with pytest.raises(ValueError, match="non-empty"):
        save_pgm(img, tmp_path / "x.pgm")
    assert not (tmp_path / "x.pgm").exists()


def test_load_pgms_stacks_same_size_files(tmp_path):
    rng = np.random.default_rng(4)
    images = [random_image(rng, 3, 3) for _ in range(3)]
    paths = [tmp_path / f"{i}.pgm" for i in range(3)]
    for img, path in zip(images, paths):
        save_pgm(img, path)
    stack = load_pgms(iter(paths), 3)
    assert stack.dtype == np.uint8 and stack.shape == (3, 3, 3)
    np.testing.assert_array_equal(stack, np.stack(images))


def test_load_pgms_refuses_the_first_file_of_another_size_by_name(tmp_path):
    save_pgm(random_image(np.random.default_rng(5), 3, 3), tmp_path / "a.pgm")
    save_pgm(random_image(np.random.default_rng(6), 2, 3), tmp_path / "b.pgm")
    message = f"{tmp_path / 'b.pgm'}: image is 2x3, but the model takes 3x3 input"
    for paths in ([tmp_path / "a.pgm", tmp_path / "b.pgm"], [tmp_path / "b.pgm"]):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):  # missing.pgm is never read
            load_pgms([*paths, tmp_path / "missing.pgm"], 3)


def test_read_p2_ascii():
    img = read_pgm(b"P2\n# a comment\n3 1\n255\n0 100 255\n")
    assert img.tolist() == [[0, 100, 255]]


def test_read_p5_with_comments():
    data = b"P5 # raw\n# size next\n2 1\n255\n" + bytes([1, 2])
    assert read_pgm(data).tolist() == [[1, 2]]


def test_truncated_payload():
    with pytest.raises(PgmError, match="truncated"):
        read_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))


def test_truncated_ascii_payload():
    with pytest.raises(PgmError, match="truncated"):
        read_pgm(b"P2\n2 2\n255\n1 2 3")


def test_maxval_too_large():
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")


@pytest.mark.parametrize("magic, raster", [(b"P5", b"\xff\x10"), (b"P2", b"255 16")])
def test_pixels_above_maxval_refused_in_both_formats(magic, raster):
    with pytest.raises(PgmError, match=r"^malformed PGM pixel value 255 \(maxval 15\)$"):
        read_pgm(magic + b"\n2 1\n15\n" + raster)


@settings(max_examples=200, deadline=None)
@given(maxval=st.integers(1, 255), raster=st.binary(min_size=1, max_size=12))
def test_p5_parses_exactly_when_no_pixel_exceeds_maxval(maxval, raster):
    data = b"P5\n%d 1\n%d\n" % (len(raster), maxval) + raster
    above = [v for v in raster if v > maxval]
    if above:
        with pytest.raises(PgmError, match=rf"pixel value {above[0]} \(maxval {maxval}\)"):
            read_pgm(data)
    else:
        assert read_pgm(data).tobytes() == raster


def test_bad_magic():
    with pytest.raises(PgmError, match="magic"):
        read_pgm(b"P6\n1 1\n255\n\x00")


def test_bad_header_token():
    with pytest.raises(PgmError, match="header"):
        read_pgm(b"P5\nx 2\n255\n")


@pytest.mark.parametrize(
    "data",
    [
        b"P5 +2 1_0 2_55\n" + bytes(20),
        b"P5 +2 1 255\n\x00\x00",
        b"P5 2 -1 255\n\x00\x00",
        b"P5 1_0 1 255\n" + bytes(10),
        b"P5 2 1 2_55\n\x00\x00",
        b"P5 2 1 +255\n\x00\x00",
    ],
)
def test_header_signs_and_underscores_refused(data):
    with pytest.raises(PgmError, match="malformed PGM header: bad"):
        read_pgm(data)


@pytest.mark.parametrize("pixel", [b"+1", b"-0", b"1_0", b"0x1"])
def test_ascii_pixel_signs_and_underscores_refused(pixel):
    with pytest.raises(PgmError, match="malformed PGM pixel"):
        read_pgm(b"P2 2 1 255 7 " + pixel + b"\n")


def test_rotate_identity():
    img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    for turns in (0, 4, -4):  # taken mod 4
        assert rotate(img, turns) is img


def test_rotate_takes_turns_mod_4():
    img = random_image(np.random.default_rng(7), 3, 2)
    for turns in range(-5, 9):
        np.testing.assert_array_equal(rotate(img, turns), rotate(img, turns % 4))


def test_rotate_four_times_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        img = random_image(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        out = img
        for _ in range(4):
            out = rotate(out, 1)
        np.testing.assert_array_equal(out, img)


def test_rotate_column_mapping():
    # mapping (r0, c0) -> (c0, H-1-r0): a(0,0)->(0,1), b(1,0)->(0,0)
    img = np.array([[10], [20]], dtype=np.uint8)
    out = rotate(img, 1)
    assert out.shape == (1, 2) and out.flags.c_contiguous
    assert out.tolist() == [[20, 10]]


def test_rotate_2x2_mapping():
    img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    assert rotate(img, 1).tolist() == [[3, 1], [4, 2]]
    assert rotate(img, -1).tolist() == [[2, 4], [1, 3]]


def test_rotate_preserves_pixel_multiset():
    rng = np.random.default_rng(1)
    img = random_image(rng, 7, 5)
    for k in range(4):
        out = rotate(img, k)
        assert sorted(out.ravel()) == sorted(img.ravel())


def test_rotate_composes():
    rng = np.random.default_rng(2)
    img = random_image(rng, 6, 4)
    twice = rotate(rotate(img, 1), 1)
    np.testing.assert_array_equal(twice, rotate(img, 2))
    np.testing.assert_array_equal(rotate(rotate(img, 3), -3), img)


_PGM_SAMPLES = [
    b"P5\n3 2\n255\n" + bytes([9, 8, 7, 6, 5, 4]),
    b"P2\n# c\n3 2\n200\n0 1 2\n3 4 200\n",
]
_PGM_TOKENS = [b"", b" ", b"\n", b"#", b"P2", b"P5", b"0", b"1", b"9", b"-", b"+", b"_",
               b"255", b"256", b"99999999999", b"\xff", b"x"]


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=40) | st.sampled_from(_PGM_SAMPLES))
def test_any_bytes_parse_or_raise_pgm_error(data):
    try:
        img = read_pgm(data)
    except PgmError:
        return
    assert img.dtype == np.uint8 and img.ndim == 2 and img.size


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_pgm_parses_or_raises_pgm_error(data):
    buf = bytearray(data.draw(st.sampled_from(_PGM_SAMPLES)))
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(buf)))
        cut = data.draw(st.integers(0, 3))
        buf[i : i + cut] = data.draw(st.sampled_from(_PGM_TOKENS) | st.binary(max_size=3))
    try:
        img = read_pgm(bytes(buf))
    except PgmError:
        return
    assert img.dtype == np.uint8 and img.ndim == 2 and img.size


def test_ascii_pixel_count_beyond_the_data_is_refused_before_allocating():
    with pytest.raises(PgmError, match="expected 10000000000 pixels in 1 bytes"):
        read_pgm(b"P2 100000 100000 255 ")


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 40), st.integers(1, 40)), data=st.data())
def test_write_then_read_round_trips_exactly(shape, data):
    h, w = shape
    pixels = data.draw(st.binary(min_size=h * w, max_size=h * w))
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
    encoded = write_pgm(img)
    np.testing.assert_array_equal(read_pgm(encoded), img)
    assert write_pgm(read_pgm(encoded)) == encoded
    ascii_pgm = f"P2\n{w} {h}\n255\n{' '.join(map(str, pixels))}\n".encode()
    np.testing.assert_array_equal(read_pgm(ascii_pgm), img)


_NOT_WHITESPACE_OR_COMMENT = st.binary(min_size=1, max_size=6).filter(
    lambda tok: not any(c in b" \t\n\r\x0b\x0c#" for c in tok)
)


@settings(max_examples=300, deadline=None)
@given(tok=_NOT_WHITESPACE_OR_COMMENT.filter(lambda tok: not tok.isdigit()),
       field=st.integers(0, 3))
def test_a_number_token_that_is_not_all_digits_is_refused(tok, field):
    fields = [b"P2", b"1", b"1", b"255", b"7"]
    fields[field + 1] = tok
    with pytest.raises(PgmError, match="malformed PGM"):
        read_pgm(b" ".join(fields) + b"\n")
