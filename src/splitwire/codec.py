"""Quantize and dequantize bottleneck tensors for transfer.

Width 8 uses an affine scheme (one float32 scale plus an integer zero point).
The representable range is widened to include zero, so the round-trip error
never exceeds scale/2 even for sign-definite tensors. Width 16 is a plain
IEEE 754 binary16 cast with round-to-nearest-even; width 32 is an identity
passthrough. Payload element order is row-major; 16- and 32-bit elements are
stored little-endian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CodecError, RangeError, ShapeError
from .tensor import Shape, Tensor

__all__ = [
    "QuantizedTensor",
    "SizeReport",
    "quantize8",
    "quantize16",
    "passthrough32",
    "dequantize",
    "data_size",
    "ratio_vs",
    "wire_header_bytes",
]

BINARY16_MAX = 65504.0

# Framing overhead of the pipeline wire header, fixed at
# magic(4) + version(1) + msg_type(1) + ndim(1) + 4*ndim dims
# + scale(4) + zero_point(4) + payload_len(8). At most 55 bytes for
# rank <= 8 tensors, inside the 64-byte budget ceiling.
_HEADER_FIXED = 23


def wire_header_bytes(ndim: int) -> int:
    """Header byte count of a wire message carrying a rank-``ndim`` tensor."""
    return _HEADER_FIXED + 4 * ndim


@dataclass(frozen=True)
class QuantizedTensor:
    """Shape, element width, scale/zero point, and the raw payload bytes."""

    shape: Shape
    width: int
    scale: float
    zero_point: int
    payload: bytes
    saturated: bool = False
    symmetric: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.width not in (8, 16, 32):
            raise CodecError(f"unsupported element width {self.width}")
        expected = self.shape.numel * (self.width // 8)
        if len(self.payload) != expected:
            raise CodecError(
                f"payload length {len(self.payload)} != expected {expected} "
                f"for shape {self.shape} at width {self.width}"
            )
        scale = float(np.float32(self.scale)) if np.isfinite(self.scale) else self.scale
        if self.width == 8 and not (np.isfinite(scale) and scale > 0):
            raise CodecError(f"width-8 scale must be finite and > 0, got {scale}")
        if not 0 <= self.zero_point <= 255:
            raise CodecError(f"zero_point must be in [0, 255], got {self.zero_point}")
        object.__setattr__(self, "scale", scale)

    @property
    def numel(self) -> int:
        return self.shape.numel


@dataclass(frozen=True)
class SizeReport:
    """Byte accounting of one quantized message."""

    payload_bytes: int
    header_bytes: int
    total_bytes: int
    ratio_vs_reference: float


def quantize8(t: Tensor, symmetric: bool = False) -> QuantizedTensor:
    """8-bit affine quantization.

    Default mode carries a zero point so asymmetric (post-ReLU style) value
    ranges quantize well. ``symmetric=True`` is the strict single-float mode:
    scale only, zero point fixed at 0, intended for nonnegative activations
    (negative values saturate at 0).

    Constant tensors take a degenerate rule chosen for an exact round trip.
    """
    if t.numel < 1:
        raise ShapeError("cannot quantize an empty tensor")
    x = t.data
    m = float(x.min())
    big = float(x.max())

    if big == m:
        return _quantize8_constant(t, m, symmetric)

    if symmetric:
        scale = float(np.float32(big / 255.0)) if big > 0.0 else 1.0
    else:
        lo = min(m, 0.0)
        scale = float(np.float32((max(big, 0.0) - lo) / 255.0))
    if scale == 0.0:
        raise CodecError(
            f"value range [{m:g}, {big:g}] is too narrow: the binary32 scale underflows to 0"
        )
    zero_point = 0 if symmetric else int(np.clip(round(-lo / scale), 0, 255))

    q = x.astype(np.float64)
    q /= scale
    np.rint(q, out=q)
    q += zero_point
    np.clip(q, 0, 255, out=q)
    payload = q.astype(np.uint8).tobytes()
    return QuantizedTensor(t.shape, 8, scale, zero_point, payload, symmetric=symmetric)


def _quantize8_constant(t: Tensor, c: float, symmetric: bool) -> QuantizedTensor:
    # Exact round trip: dequantize gives scale * (q - zero_point) == c.
    if c == 0.0:
        scale, zp, level = 1.0, 0, 0
    elif c > 0.0:
        scale, zp, level = c, 0, 1
    elif symmetric:
        # Strict mode cannot represent negatives; saturate at zero.
        scale, zp, level = 1.0, 0, 0
    else:
        scale, zp, level = -c, 1, 0
    payload = bytes([level]) * t.numel
    return QuantizedTensor(t.shape, 8, scale, zp, payload, symmetric=symmetric)


def quantize16(t: Tensor) -> QuantizedTensor:
    """Cast to binary16 (round-to-nearest-even), little-endian payload.

    Values outside the binary16 range are clamped to +/-65504 and the result
    is flagged as saturated rather than rejected.
    """
    x = t.data
    saturated = bool(np.any(np.abs(x) > BINARY16_MAX))
    if saturated:
        x = np.clip(x, -BINARY16_MAX, BINARY16_MAX)
    payload = x.astype("<f2").tobytes()
    return QuantizedTensor(t.shape, 16, 1.0, 0, payload, saturated=saturated)


def passthrough32(t: Tensor) -> QuantizedTensor:
    """Identity passthrough: raw little-endian float32 payload."""
    return QuantizedTensor(t.shape, 32, 1.0, 0, t.data.astype("<f4", copy=False).tobytes())


def dequantize(q: QuantizedTensor) -> Tensor:
    """Invert quantize8/quantize16/passthrough32.

    Width 8 is ``float32(level - zero_point) * float32(scale)`` in float32
    arithmetic, bit-identical to rounding the float64 product ``scale *
    (level - zero_point)`` to float32 once. ``level - zero_point`` is an
    integer of magnitude <= 255, exact in float32; ``scale`` is binary32, so
    the exact product has at most 24 + 8 significant bits and is exact in
    float64. Both paths therefore round the same exact value once, to
    nearest-even, including overflow to Inf and subnormal results.

    Raises CodecError when a dequantized value is NaN or infinite. The
    returned tensor owns a freshly allocated array; it shares no memory with
    ``q.payload``.
    """
    expected = q.numel * (q.width // 8)
    if len(q.payload) != expected:
        raise CodecError(
            f"corrupt payload: {len(q.payload)} bytes, expected {expected}"
        )
    if q.width == 8:
        levels = np.frombuffer(q.payload, dtype=np.uint8)
        scale = np.float32(q.scale)
        # Rounding is monotone, so when the product at the level farthest
        # from the zero point is finite, every product is; only then may the
        # payload's own values go unchecked.
        with np.errstate(over="ignore"):
            vals = np.subtract(levels, np.float32(q.zero_point), dtype=np.float32)
            vals *= scale
            finite = (np.isfinite(scale * np.float32(max(q.zero_point, 255 - q.zero_point)))
                      or np.isfinite(vals).all())
    else:
        vals = np.frombuffer(q.payload, dtype=f"<f{q.width // 8}").astype(np.float32)
        finite = np.isfinite(vals).all()
    if not finite:
        raise CodecError(f"width-{q.width} payload dequantizes to NaN or Inf")
    return Tensor._adopt(q.shape, vals)


def data_size(q: QuantizedTensor, reference_bytes: int | None = None) -> SizeReport:
    """Byte totals including the wire header; ratio is vs ``reference_bytes``
    when given (1.0 otherwise)."""
    payload = len(q.payload)
    header = wire_header_bytes(q.shape.rank)
    total = payload + header
    if reference_bytes is None:
        ratio = 1.0
    else:
        if reference_bytes <= 0:
            raise RangeError(f"reference_bytes must be > 0, got {reference_bytes}")
        ratio = total / reference_bytes
    return SizeReport(payload, header, total, ratio)


def ratio_vs(q: QuantizedTensor, reference_bytes: int) -> float:
    """Total message bytes divided by a reference byte count."""
    return data_size(q, reference_bytes).ratio_vs_reference
