import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_image
from dxpipe.image import (
    Image,
    PgmError,
    Rotation,
    flip_horizontal,
    read_pgm,
    rotate,
    write_pgm,
)


def test_read_p5_minimal():
    data = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])
    img = read_pgm(data)
    assert (img.width, img.height) == (2, 2)
    assert list(img.pixels) == [0, 128, 255, 7]


def test_p5_round_trip_bytes():
    data = b"P5\n3 2\n255\n" + bytes([9, 8, 7, 6, 5, 4])
    assert write_pgm(read_pgm(data)) == data


def test_image_round_trip():
    img = Image(2, 2, bytes([0, 128, 255, 7]))
    assert read_pgm(write_pgm(img)) == img


def test_read_p2_ascii():
    img = read_pgm(b"P2\n# a comment\n3 1\n255\n0 100 255\n")
    assert list(img.pixels) == [0, 100, 255]


def test_read_p5_with_comments():
    data = b"P5 # raw\n# size next\n2 1\n255\n" + bytes([1, 2])
    assert list(read_pgm(data).pixels) == [1, 2]


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
        assert read_pgm(data).pixels == raster


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


def test_pixel_buffer_length_enforced():
    with pytest.raises(ValueError, match="length"):
        Image(2, 2, bytes([1, 2, 3]))


def test_rotate_identity():
    img = Image(2, 2, bytes([1, 2, 3, 4]))
    assert rotate(img, Rotation(0)) == img
    assert rotate(img, Rotation(4)) == img  # canonical mod 4


def test_rotate_four_times_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        img = random_image(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        out = img
        for _ in range(4):
            out = rotate(out, Rotation(1))
        assert out == img


def test_rotate_column_mapping():
    # mapping (r0, c0) -> (c0, H-1-r0): a(0,0)->(0,1), b(1,0)->(0,0)
    img = Image(1, 2, bytes([10, 20]))
    out = rotate(img, Rotation(1))
    assert (out.width, out.height) == (2, 1)
    assert list(out.pixels) == [20, 10]


def test_rotate_2x2_mapping():
    img = Image.from_array(np.array([[1, 2], [3, 4]], dtype=np.uint8))
    out = rotate(img, Rotation(1)).to_array()
    assert out.tolist() == [[3, 1], [4, 2]]


def test_rotate_preserves_pixel_multiset():
    rng = np.random.default_rng(1)
    img = random_image(rng, 7, 5)
    for k in range(4):
        out = rotate(img, Rotation(k))
        assert sorted(out.pixels) == sorted(img.pixels)


def test_rotate_composes():
    rng = np.random.default_rng(2)
    img = random_image(rng, 6, 4)
    twice = rotate(rotate(img, Rotation(1)), Rotation(1))
    assert twice == rotate(img, Rotation(2))


def test_flip_twice_is_identity():
    rng = np.random.default_rng(3)
    img = random_image(rng, 5, 4)
    assert flip_horizontal(flip_horizontal(img)) == img


def test_flip_1x2():
    img = Image(2, 1, bytes([10, 20]))
    assert list(flip_horizontal(img).pixels) == [20, 10]


def test_flip_symmetric_unchanged():
    img = Image.from_array(np.array([[1, 2, 1], [5, 9, 5]], dtype=np.uint8))
    assert flip_horizontal(img) == img


def test_rotation_canonical():
    assert Rotation(7).quarter_turns == 3
    assert Rotation(-1).quarter_turns == 3
    assert int(Rotation(2).inverse()) == 2
    assert int(Rotation(1).inverse()) == 3


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
    assert len(img.pixels) == img.width * img.height


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
    assert len(img.pixels) == img.width * img.height


def test_ascii_pixel_count_beyond_the_data_is_refused_before_allocating():
    with pytest.raises(PgmError, match="expected 10000000000 pixels in 1 bytes"):
        read_pgm(b"P2 100000 100000 255 ")


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 40), st.integers(1, 40)), data=st.data())
def test_write_then_read_round_trips_exactly(shape, data):
    h, w = shape
    img = Image(w, h, data.draw(st.binary(min_size=h * w, max_size=h * w)))
    encoded = write_pgm(img)
    assert read_pgm(encoded) == img
    assert write_pgm(read_pgm(encoded)) == encoded
    ascii_pgm = f"P2\n{w} {h}\n255\n{' '.join(map(str, img.pixels))}\n".encode()
    assert read_pgm(ascii_pgm) == img


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
