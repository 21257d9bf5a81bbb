"""Color conversion tests against a scalar per-pixel reference.

The reference implementations below were written first, straight from the
textbook hexcone and full-range BT.601 formulas, and share no code with the
vectorized module under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromapad.colorspace import (
    ColorImage,
    ColorSpace,
    convert,
    image_to_tensor,
    load_ppm,
    rgb_to_hsv,
    rgb_to_ycbcr,
    to_ppm_bytes,
)
from chromapad.errors import (ChromapadError, PpmParseError, ShapeError,
                              SpaceError)


def _round_half_away(x):
    return math.floor(abs(x) + 0.5) * (1 if x >= 0 else -1)


def ref_hsv(r, g, b):
    maxc = max(r, g, b)
    minc = min(r, g, b)
    delta = maxc - minc
    if delta == 0:
        hue = 0.0
    elif maxc == r:
        hue = 60.0 * (((g - b) / delta) % 6.0)
    elif maxc == g:
        hue = 60.0 * ((b - r) / delta + 2.0)
    else:
        hue = 60.0 * ((r - g) / delta + 4.0)
    sat = 0.0 if maxc == 0 else delta / maxc
    return (
        min(255, _round_half_away(hue * (255.0 / 360.0))),
        min(255, _round_half_away(sat * 255.0)),
        maxc,
    )


def ref_ycbcr(r, g, b):
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    clamp = lambda v: min(255, max(0, _round_half_away(v)))
    return clamp(y), clamp(cb), clamp(cr)


def make_image(pixels):
    arr = np.array(pixels, np.uint8)
    return ColorImage(width=arr.shape[1], height=arr.shape[0],
                      space=ColorSpace.RGB, pixels=arr)


class TestPpm:
    def test_minimal_black_pixel(self):
        img = load_ppm(b"P6\n1 1\n255\n\x00\x00\x00")
        assert (img.width, img.height) == (1, 1)
        assert img.space is ColorSpace.RGB
        assert np.array_equal(img.pixels, np.zeros((1, 1, 3), np.uint8))

    def test_two_pixel_order(self):
        img = load_ppm(b"P6\n2 1\n255\n\xff\x00\x00\x00\xff\x00")
        assert tuple(img.pixels[0, 0]) == (255, 0, 0)
        assert tuple(img.pixels[0, 1]) == (0, 255, 0)

    def test_comment_and_whitespace_tolerant_header(self):
        img = load_ppm(b"P6 # ppm\n# size\n2\t1 255\n" + b"\x01" * 6)
        assert (img.width, img.height) == (2, 1)

    def test_wrong_magic_offset_zero(self):
        with pytest.raises(PpmParseError) as err:
            load_ppm(b"P5\n1 1\n255\n\x00")
        assert err.value.offset == 0

    def test_wide_maxval_rejected(self):
        with pytest.raises(PpmParseError) as err:
            load_ppm(b"P6\n1 1\n65535\n\x00\x00")
        assert "65535" in str(err.value)
        assert err.value.offset == 7

    def test_truncated_payload_reports_offset(self):
        data = b"P6\n2 2\n255\n" + b"\x00" * 5
        with pytest.raises(PpmParseError) as err:
            load_ppm(data)
        assert err.value.offset == len(data)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        img = make_image(rng.integers(0, 256, (3, 5, 3)))
        again = load_ppm(to_ppm_bytes(img))
        assert np.array_equal(again.pixels, img.pixels)

    def test_writer_rejects_converted_images(self):
        img = rgb_to_hsv(make_image([[(1, 2, 3)]]))
        with pytest.raises(SpaceError):
            to_ppm_bytes(img)


VALID_PPM = b"P6\n2 1\n255\n\xff\x00\x00\x00\xff\x00"


@st.composite
def ppm_span_mutations(draw):
    """`VALID_PPM` with one span replaced by arbitrary bytes or by header
    characters (digits, whitespace, comment marks)."""
    start = draw(st.integers(0, len(VALID_PPM)))
    end = draw(st.integers(start, len(VALID_PPM)))
    patch = draw(st.one_of(st.binary(max_size=8),
                           st.text("0123456789 \t\r\n#P", max_size=8)
                           .map(str.encode)))
    return VALID_PPM[:start] + patch + VALID_PPM[end:]


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=64), ppm_span_mutations()))
def test_load_ppm_loads_or_raises_parse_error_in_range(data):
    try:
        img = load_ppm(data)
    except PpmParseError as exc:
        assert 0 <= exc.offset <= len(data)
    else:
        assert img.pixels.shape == (img.height, img.width, 3)


class TestHsv:
    def test_gray_has_zero_saturation(self):
        out = rgb_to_hsv(make_image([[(128, 128, 128)]]))
        assert tuple(out.pixels[0, 0]) == (0, 0, 128)

    def test_pure_red_is_hue_origin(self):
        out = rgb_to_hsv(make_image([[(255, 0, 0)]]))
        assert tuple(out.pixels[0, 0]) == (0, 255, 255)

    def test_reference_value(self):
        out = rgb_to_hsv(make_image([[(0, 128, 255)]]))
        assert tuple(out.pixels[0, 0]) == ref_hsv(0, 128, 255)

    def test_space_tag_and_source_check(self):
        img = make_image([[(1, 2, 3)]])
        out = rgb_to_hsv(img)
        assert out.space is ColorSpace.HSV
        with pytest.raises(SpaceError):
            rgb_to_hsv(out)

    def test_value_channel_is_max(self):
        rng = np.random.default_rng(1)
        img = make_image(rng.integers(0, 256, (8, 8, 3)))
        out = rgb_to_hsv(img)
        assert np.array_equal(out.pixels[..., 2],
                              img.pixels.max(axis=-1))

    def test_matches_scalar_reference_at_random_points(self):
        rng = np.random.default_rng(2)
        px = rng.integers(0, 256, (100, 100, 3)).astype(np.uint8)
        out = rgb_to_hsv(make_image(px)).pixels
        for i, j in zip(rng.integers(0, 100, 300), rng.integers(0, 100, 300)):
            r, g, b = (int(v) for v in px[i, j])
            assert tuple(out[i, j]) == ref_hsv(r, g, b), (r, g, b)


class TestYcbcr:
    def test_achromatic_axis(self):
        for gray in (0, 1, 77, 128, 254, 255):
            out = rgb_to_ycbcr(make_image([[(gray, gray, gray)]]))
            assert tuple(out.pixels[0, 0]) == (gray, 128, 128)

    def test_pure_red(self):
        out = rgb_to_ycbcr(make_image([[(255, 0, 0)]]))
        assert tuple(out.pixels[0, 0]) == (76, 85, 255)

    def test_space_tag_and_source_check(self):
        out = rgb_to_ycbcr(make_image([[(9, 9, 9)]]))
        assert out.space is ColorSpace.YCBCR
        with pytest.raises(SpaceError):
            rgb_to_ycbcr(out)

    def test_matches_scalar_reference_at_random_points(self):
        rng = np.random.default_rng(3)
        px = rng.integers(0, 256, (100, 100, 3)).astype(np.uint8)
        out = rgb_to_ycbcr(make_image(px)).pixels
        for i, j in zip(rng.integers(0, 100, 300), rng.integers(0, 100, 300)):
            r, g, b = (int(v) for v in px[i, j])
            assert tuple(out[i, j]) == ref_ycbcr(r, g, b), (r, g, b)


def test_conversions_match_reference_over_many_random_pixels():
    # exactness over 10,000 random points of the 2^24 input cube
    rng = np.random.default_rng(4)
    px = rng.integers(0, 256, (100, 100, 3)).astype(np.uint8)
    img = make_image(px)
    hsv = rgb_to_hsv(img).pixels
    ycc = rgb_to_ycbcr(img).pixels
    for i in range(100):
        for j in range(100):
            r, g, b = (int(v) for v in px[i, j])
            assert tuple(hsv[i, j]) == ref_hsv(r, g, b)
            assert tuple(ycc[i, j]) == ref_ycbcr(r, g, b)


class TestImageToTensor:
    def test_zero_image(self):
        t = image_to_tensor(make_image(np.zeros((2, 2, 3), np.uint8)))
        assert t.shape == (3, 2, 2)
        assert np.all(t == 0.0)

    def test_full_image(self):
        t = image_to_tensor(make_image(np.full((2, 2, 3), 255, np.uint8)))
        assert np.all(t == 1.0)

    def test_midpoint_scaling(self):
        t = image_to_tensor(make_image([[(128, 0, 0)]]))
        assert abs(float(t[0, 0, 0]) - 128 / 255) < 1e-7

    def test_channel_major_layout(self):
        t = image_to_tensor(make_image([[(10, 20, 30), (40, 50, 60)]]))
        assert t.shape == (3, 1, 2)
        assert float(t[1, 0, 1]) == np.float32(50) / np.float32(255)


class TestConvertDispatch:
    def test_rgb_passthrough_is_same_object(self):
        img = make_image([[(5, 6, 7)]])
        assert convert(img, ColorSpace.RGB) is img

    def test_dispatch_tags(self):
        img = make_image([[(5, 6, 7)]])
        assert convert(img, ColorSpace.HSV).space is ColorSpace.HSV
        assert convert(img, ColorSpace.YCBCR).space is ColorSpace.YCBCR


def test_image_invariants():
    with pytest.raises(ShapeError):
        ColorImage(width=2, height=1, space=ColorSpace.RGB,
                   pixels=np.zeros((1, 1, 3), np.uint8))
    with pytest.raises(ShapeError):
        ColorImage(width=0, height=1, space=ColorSpace.RGB,
                   pixels=np.zeros((1, 0, 3), np.uint8))


@pytest.mark.parametrize("value", [300, -1, 1.7, np.nan, np.inf, 256.0],
                         ids=("300", "minus_1", "1.7", "nan", "inf", "256.0"))
def test_pixels_outside_uint8_rejected(value):
    # a pixel array of another dtype must hold integers in [0, 255]: none
    # wraps (300 -> 44, -1 -> 255) or truncates (1.7 -> 1) silently
    pixels = np.full((1, 2, 3), 7, np.asarray(value).dtype)
    pixels[0, 1, 2] = value
    with pytest.raises(ChromapadError,
                       match=r"^pixels must be integers in \[0, 255\]$"):
        ColorImage(width=2, height=1, space=ColorSpace.RGB, pixels=pixels)


def test_integral_pixels_of_any_dtype_accepted():
    want = np.array([[[0, 1, 2], [253, 254, 255]]], np.uint8)
    for dtype in (np.int64, np.uint16, np.float64, np.float32):
        img = ColorImage(width=2, height=1, space=ColorSpace.RGB,
                         pixels=want.astype(dtype))
        assert img.pixels.dtype == np.uint8
        assert img.pixels.tobytes() == want.tobytes()
    # uint8 pixels are taken as they are, not copied
    assert ColorImage(2, 1, ColorSpace.RGB, want).pixels is want
