"""Image decoding and RGB -> HSV / YCbCr conversion for the branch inputs.

Conversions use the ubiquitous defaults: full-range BT.601 for YCbCr and the
hexcone model for HSV with all three channels scaled to [0, 255] (hue maps
[0, 360) degrees onto [0, 255]). Rounding is half away from zero everywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ChromapadError, PpmParseError, ShapeError, SpaceError
from .quant import _round_half_away


class ColorSpace(enum.Enum):
    RGB = "RGB"
    HSV = "HSV"
    YCBCR = "YCbCr"


@dataclass(frozen=True, eq=False)
class ColorImage:
    """An 8-bit three-channel image tagged with its color space.

    ``pixels`` is a (height, width, 3) uint8 array in row-major order; other
    pixel arrays must hold integers in [0, 255], or `ChromapadError` is
    raised.
    """

    width: int
    height: int
    space: ColorSpace
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ShapeError(
                f"image extents must be positive, got {self.width}x{self.height}"
            )
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            with np.errstate(invalid="ignore"):
                px, given = px.astype(np.uint8), px
            if not np.array_equal(px, given):
                raise ChromapadError("pixels must be integers in [0, 255]")
        if px.shape != (self.height, self.width, 3):
            raise ShapeError(
                f"pixel array shape {px.shape} does not match "
                f"{self.height}x{self.width}x3"
            )
        object.__setattr__(self, "pixels", px)


def _require_space(img: ColorImage, space: ColorSpace, op: str):
    if img.space is not space:
        raise SpaceError(f"{op} expects a {space.value} image, got {img.space.value}")


def load_ppm(data: bytes) -> ColorImage:
    """Parse a binary PPM (magic P6, maxval 255) into an RGB image."""
    pos = 0

    def next_token(what):
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c == b"#":  # comment runs to end of line
                while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        if pos >= len(data):
            raise PpmParseError(f"unexpected end of header, wanted {what}", pos)
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace() \
                and data[pos:pos + 1] != b"#":
            pos += 1
        return data[start:pos], start

    magic, off = next_token("magic")
    if magic != b"P6":
        raise PpmParseError(f"bad magic {magic!r}, expected b'P6'", off)

    fields = {}
    for name in ("width", "height", "maxval"):
        tok, off = next_token(name)
        if not tok.isdigit():
            raise PpmParseError(f"{name} is not a decimal integer: {tok!r}", off)
        try:
            fields[name] = (int(tok), off)
        except ValueError:  # past Python's integer string length limit
            raise PpmParseError(f"{name} has too many digits ({len(tok)})",
                                off) from None

    width, off = fields["width"]
    if width < 1:
        raise PpmParseError(f"width must be positive, got {width}", off)
    height, off = fields["height"]
    if height < 1:
        raise PpmParseError(f"height must be positive, got {height}", off)
    maxval, off = fields["maxval"]
    if maxval != 255:
        raise PpmParseError(f"maxval must be 255, got {maxval}", off)

    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise PpmParseError("missing whitespace after maxval", pos)
    pos += 1

    need = 3 * width * height
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise PpmParseError(
            f"truncated payload: wanted {need} bytes, got {len(payload)}",
            len(data),
        )
    pixels = np.frombuffer(payload, np.uint8).reshape(height, width, 3)
    return ColorImage(width=width, height=height, space=ColorSpace.RGB,
                      pixels=pixels.copy())


def to_ppm_bytes(img: ColorImage) -> bytes:
    """Encode an RGB image as binary PPM (P6, maxval 255)."""
    _require_space(img, ColorSpace.RGB, "to_ppm_bytes")
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def rgb_to_hsv(img: ColorImage) -> ColorImage:
    """Hexcone HSV with H, S, V all scaled to [0, 255].

    Hue is 0 wherever saturation is 0, and V equals max(R, G, B) exactly.
    Sector selection ties break in R, G, B order.
    """
    _require_space(img, ColorSpace.RGB, "rgb_to_hsv")
    r = img.pixels[..., 0].astype(np.float64)
    g = img.pixels[..., 1].astype(np.float64)
    b = img.pixels[..., 2].astype(np.float64)
    maxc = np.maximum(np.maximum(r, g), b)
    delta = maxc - np.minimum(np.minimum(r, g), b)
    is_r, is_g = maxc == r, maxc == g
    # one sector formula, 60 * (x + offset): in the R sector x % 6.0 for x
    # in [-1, 1] is x, or x + 6.0 rounded once, so its offset is 0 or 6. A
    # grey pixel lands in the R sector with x = 0 and offset 0: hue 0
    num = np.where(is_r, g - b, np.where(is_g, b - r, r - g))
    off = np.where(is_r, np.where(g < b, 6.0, 0.0), np.where(is_g, 2.0, 4.0))
    hue_deg = 60.0 * (num / np.maximum(delta, 1.0) + off)
    sat = delta / np.maximum(maxc, 1.0)
    h8 = _round_half_away(hue_deg * (255.0 / 360.0))
    s8 = _round_half_away(sat * 255.0)
    out = np.stack([h8, s8, maxc], axis=-1)
    return ColorImage(width=img.width, height=img.height, space=ColorSpace.HSV,
                      pixels=np.clip(out, 0, 255).astype(np.uint8))


def rgb_to_ycbcr(img: ColorImage) -> ColorImage:
    """Full-range BT.601 YCbCr, rounded half away from zero and clamped."""
    _require_space(img, ColorSpace.RGB, "rgb_to_ycbcr")
    r = img.pixels[..., 0].astype(np.float64)
    g = img.pixels[..., 1].astype(np.float64)
    b = img.pixels[..., 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    out = _round_half_away(np.stack([y, cb, cr], axis=-1))
    return ColorImage(width=img.width, height=img.height, space=ColorSpace.YCBCR,
                      pixels=np.clip(out, 0, 255).astype(np.uint8))


def image_to_tensor(img: ColorImage) -> np.ndarray:
    """Channel-major (3, H, W) float32 tensor with values scaled to [0, 1]."""
    chw = np.transpose(img.pixels, (2, 0, 1)).astype(np.float32)
    return chw / np.float32(255)


def convert(img: ColorImage, space: ColorSpace) -> ColorImage:
    """Convert an RGB image to ``space`` (RGB passes through unchanged)."""
    if space is ColorSpace.RGB:
        _require_space(img, ColorSpace.RGB, "convert")
        return img
    if space is ColorSpace.HSV:
        return rgb_to_hsv(img)
    return rgb_to_ycbcr(img)
