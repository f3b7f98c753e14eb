"""Quantize and dequantize bottleneck tensors for transfer.

Width 8 uses an affine scheme (one float32 scale plus an integer zero point).
The representable range is widened to include zero, so the round-trip error
never exceeds scale/2 even for sign-definite tensors. Width 16 is a plain
IEEE 754 binary16 cast with round-to-nearest-even; width 32 is the float32
values as they are. Payload element order is row-major; 16- and 32-bit
elements are stored little-endian. ``quantize8``, ``quantize16`` and
``dequantize`` raise CodecError on a NaN or infinite value, and the
quantizers raise ShapeError on anything but a tensor (``splitwire.tensor``).

The quantizers return the ``WireMessage`` that goes on the wire, and
``dequantize`` takes one: ``splitwire.pipeline.wire`` owns that record, the
frame layout and the width of each message type (``ELEMENT_BITS``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CodecError
from .pipeline.wire import ELEMENT_BITS, MsgType, WireMessage
from .tensor import Shape, check_tensor

__all__ = ["quantize8", "quantize16", "dequantize"]

BINARY16_MAX = 65504.0
_F32_MAX = float(np.finfo(np.float32).max)
# a binary32 quotient this close to an integer rounds as the float64 one does
_SAFE_DISTANCE = np.float32(0.5 - 2.0 ** -12)
# elements per block of quantize8's level pass
_LEVEL_BLOCK = 1 << 16


def _finite_range(t: np.ndarray) -> tuple[float, float]:
    """The least and greatest value of tensor ``t``; ShapeError unless ``t`` is
    a tensor, CodecError unless both values are finite."""
    m = float(check_tensor(t).min())
    big = float(t.max())
    if not (math.isfinite(m) and math.isfinite(big)):
        raise CodecError(f"tensor {Shape(t.shape)} holds NaN or Inf; only finite values quantize")
    return m, big


def quantize8(t: np.ndarray) -> WireMessage:
    """8-bit affine quantization over the value range widened to include 0.

    The zero point lets asymmetric (post-ReLU style) value ranges use all 256
    levels. Constant tensors take a degenerate rule chosen for an exact round
    trip. Raises CodecError when the range is so narrow that the binary32
    scale underflows to 0.

    A value's level is ``rint(x / scale) + zero_point`` in float64, and
    ``zero_point = round(-lo / scale)`` puts the range's low end ``lo`` on
    level 0. The binary32 scale can round down (by a large share when it is
    subnormal), which would put the high end ``hi`` above level 255; the
    scale then widens by one ulp, with the zero point recomputed, until
    ``hi`` fits. Division by a positive scale, ``rint`` and the exact
    ``+ zero_point`` are monotone, so every level lies between those of
    ``lo`` and ``hi``, in [0, 255]: the ``uint8`` cast never wraps and the
    round-trip error stays within scale/2.

    The levels are computed in binary32 and give the same bytes as that
    float64 formula. With ``r = binary32(1/scale)``, ``y = x * r`` in
    binary32 and ``k = rint(y)``, only the elements where ``|y - k| > 1/2 -
    2**-12``, or where ``y`` is NaN, are recomputed with the float64 formula:

    - The range rule gives ``|x / scale| <= 255 * (1 + 2**-23)``. ``r`` has a
      relative error of at most ``2**-24 + 2**-53`` and the product adds
      ``2**-24``, so ``|y - x/scale| < 2**-14``. Outside the band, ``k`` is
      therefore the integer nearest the exact quotient.
    - The float64 formula gives that integer too. For binary32 ``x`` and
      ``scale`` with ``|x / scale| >= 1/4``, the quotient is a half-integer
      or lies at least ``2**-27`` from every half-integer, and float64's
      error is at most ``2**-45``. An exact tie is representable, and both
      formulas round it half to even.
    - When ``1/scale`` overflows binary32 (a subnormal scale below
      ``2**-128``), ``r`` is NaN, so every ``y`` is NaN and every element
      takes the float64 formula. No other scale gives a reciprocal outside
      binary32's normal range: ``scale <= 2 * FLT_MAX / 255``.

    The level pass runs over the flat tensor in blocks of ``_LEVEL_BLOCK``
    elements through two binary32 buffers allocated once, writing each block's
    levels into one ``uint8`` array, so its temporaries stay bounded whatever
    the shape. Each element sees the same operations as in one whole-tensor
    pass, so the payload does not depend on the block size.
    """
    m, big = _finite_range(t)
    if big == m:
        return _quantize8_constant(t, m)

    lo, hi = min(m, 0.0), max(big, 0.0)
    scale = float(np.float32((hi - lo) / 255.0))
    if scale == 0.0:
        raise CodecError(
            f"value range [{m:g}, {big:g}] is too narrow: the binary32 scale underflows to 0"
        )
    zero_point = round(-lo / scale)
    while round(hi / scale) + zero_point > 255:
        scale = float(np.nextafter(np.float32(scale), np.float32(np.inf)))
        zero_point = round(-lo / scale)

    x = t.reshape(-1)
    inv = 1.0 / scale
    r = np.float32(inv) if inv <= _F32_MAX else np.float32(np.nan)
    levels = np.empty(x.size, dtype=np.uint8)
    y = np.empty(min(x.size, _LEVEL_BLOCK), dtype=np.float32)
    k = np.empty_like(y)
    for start in range(0, x.size, _LEVEL_BLOCK):
        xb = x[start:start + _LEVEL_BLOCK]
        yb, kb = y[:xb.size], k[:xb.size]
        np.multiply(xb, r, out=yb)
        np.rint(yb, out=kb)
        yb -= kb
        redo = np.flatnonzero(~(np.abs(yb, out=yb) <= _SAFE_DISTANCE))
        kb[redo] = np.rint(xb[redo].astype(np.float64) / scale)
        kb += zero_point
        levels[start:start + xb.size] = kb
    payload = levels.tobytes()
    return WireMessage(MsgType.QTENSOR8, t.shape, scale, zero_point, payload)


def _quantize8_constant(t: np.ndarray, c: float) -> WireMessage:
    # Exact round trip: dequantize gives scale * (q - zero_point) == c.
    if c == 0.0:
        scale, zp, level = 1.0, 0, 0
    elif c > 0.0:
        scale, zp, level = c, 0, 1
    else:
        scale, zp, level = -c, 1, 0
    payload = bytes([level]) * t.size
    return WireMessage(MsgType.QTENSOR8, t.shape, scale, zp, payload)


def quantize16(t: np.ndarray) -> WireMessage:
    """Cast to binary16 (round-to-nearest-even), little-endian payload.

    Values outside the binary16 range are clamped to +/-65504 rather than
    rejected.
    """
    m, big = _finite_range(t)
    if m < -BINARY16_MAX or big > BINARY16_MAX:
        t = np.clip(t, -BINARY16_MAX, BINARY16_MAX)
    payload = t.astype("<f2").tobytes()
    return WireMessage(MsgType.QTENSOR16, t.shape, 1.0, 0, payload)


def dequantize(m: WireMessage) -> np.ndarray:
    """Invert quantize8, quantize16 and ``wire.tensor_to_message``.

    Width 8 is ``float32(level - zero_point) * float32(scale)`` in float32
    arithmetic, bit-identical to rounding the float64 product ``scale *
    (level - zero_point)`` to float32 once. ``level - zero_point`` is an
    integer of magnitude <= 255, exact in float32; ``scale`` is binary32, so
    the exact product has at most 24 + 8 significant bits and is exact in
    float64. Both paths therefore round the same exact value once, to
    nearest-even, including overflow to Inf and subnormal results.

    Widths 16 and 32 ignore the scale and zero point. Raises CodecError for a
    message type with no tensor, a width-8 scale <= 0 or zero point outside
    [0, 255], or a NaN or infinite result. The returned tensor is a freshly
    allocated read-only array of shape ``m.dims``; it shares no memory with
    ``m.payload``.
    """
    width = ELEMENT_BITS.get(m.msg_type)
    if width is None:
        raise CodecError(f"{m.msg_type.name} does not carry a tensor")
    if width == 8:
        # the message has already rounded the scale to a finite binary32 value
        if not m.scale > 0:
            raise CodecError(f"width-8 scale must be finite and > 0, got {m.scale}")
        if not 0 <= m.zero_point <= 255:
            raise CodecError(f"zero_point must be in [0, 255], got {m.zero_point}")
        levels = np.frombuffer(m.payload, dtype=np.uint8)
        scale = np.float32(m.scale)
        # Rounding is monotone, so when the product at the level farthest
        # from the zero point is finite, every product is; only then may the
        # payload's own values go unchecked.
        with np.errstate(over="ignore"):
            vals = np.subtract(levels, np.float32(m.zero_point), dtype=np.float32)
            vals *= scale
            finite = (np.isfinite(scale * np.float32(max(m.zero_point, 255 - m.zero_point)))
                      or np.isfinite(vals).all())
    else:
        vals = np.frombuffer(m.payload, dtype=f"<f{width // 8}").astype(np.float32)
        finite = np.isfinite(vals).all()
    if not finite:
        raise CodecError(f"width-{width} payload dequantizes to NaN or Inf")
    vals = vals.reshape(m.dims)
    vals.setflags(write=False)
    return vals
