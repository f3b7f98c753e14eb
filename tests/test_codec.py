import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitwire.codec import (
    BINARY16_MAX,
    QuantizedTensor,
    data_size,
    dequantize,
    passthrough32,
    quantize8,
    quantize16,
    ratio_vs,
    wire_header_bytes,
)
from splitwire.errors import CodecError, RangeError
from splitwire.pipeline.wire import MsgType, WireMessage, message_to_quantized
from splitwire.tensor import Shape, make_tensor, random_fill


# --- independent oracles ------------------------------------------------------

def oracle_affine_quant(values, scale, zero_point):
    """Direct per-element rounding, pure Python."""
    out = []
    for x in values:
        q = round(x / scale) + zero_point
        out.append(min(255, max(0, q)))
    return out


def ref_float_to_half_bits(x: float) -> int:
    """Bit-level reference binary16 converter with round-to-nearest-even."""
    sign = 0x8000 if math.copysign(1.0, x) < 0 else 0
    a = abs(x)
    if a == 0.0:
        return sign
    if a >= 65520.0:  # rounds past binary16 max
        return sign | 0x7C00
    mantissa, exp2 = math.frexp(a)  # a = mantissa * 2**exp2, mantissa in [0.5, 1)
    e = exp2 - 1
    if e < -14:
        # subnormal: value in units of 2**-24; exact in float64 for float32 input
        n = a / 2.0 ** -24
        n = _round_half_even(n)
        if n >= 1024:
            return sign | 0x0400  # rounds up into the smallest normal
        return sign | int(n)
    frac = a / 2.0 ** e  # [1, 2)
    n = _round_half_even(frac * 1024.0)
    if n == 2048:
        e += 1
        n = 1024
    if e > 15:
        return sign | 0x7C00
    return sign | ((e + 15) << 10) | (int(n) - 1024)


def _round_half_even(v: float) -> int:
    floor = math.floor(v)
    rem = v - floor
    if rem > 0.5:
        return floor + 1
    if rem < 0.5:
        return floor
    return floor if floor % 2 == 0 else floor + 1


def numpy_half_bits(x: float) -> int:
    return struct.unpack("<H", np.float32(x).astype("<f2").tobytes())[0]


# --- quantize8 ----------------------------------------------------------------

def test_constant_tensor_roundtrips_exactly():
    t = make_tensor([2], [5.0, 5.0])
    assert dequantize(quantize8(t)) == t


def test_constant_negative_tensor_roundtrips_exactly():
    t = make_tensor([3], [-2.5, -2.5, -2.5])
    q = quantize8(t)
    assert dequantize(q) == t
    assert q.scale > 0
    assert 0 <= q.zero_point <= 255


def test_constant_zero_tensor():
    t = make_tensor([4], [0.0] * 4)
    q = quantize8(t)
    assert q.scale == 1.0 and q.zero_point == 0
    assert dequantize(q) == t


def test_grid_aligned_tensor_is_exact():
    values = [float(i) for i in range(256)]
    t = make_tensor([256], values)
    q = quantize8(t)
    assert q.scale == 1.0
    assert q.zero_point == 0
    assert dequantize(q) == t


def test_uniform_tensor_matches_rounding_oracle():
    t = random_fill(Shape([257]), seed=5, lo=-1.0, hi=1.0)
    q = quantize8(t)
    m, big = float(t.data.min()), float(t.data.max())
    assert q.scale == pytest.approx((big - m) / 255, rel=1e-6)
    expected = oracle_affine_quant(t.data.astype(np.float64), q.scale, q.zero_point)
    assert list(q.payload) == expected
    err = np.max(np.abs(dequantize(q).data.astype(np.float64) - t.data))
    assert err <= q.scale / 2 + 1e-6


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.0, 4.0), (10.0, 11.0),
                                   (-8.0, -3.0), (-1e-3, 1e-3)])
def test_roundtrip_bound_for_sign_definite_ranges(lo, hi):
    # The affine range always covers zero, so the half-step bound holds even
    # when every value has the same sign.
    t = random_fill(Shape([500]), seed=17, lo=lo, hi=hi)
    q = quantize8(t)
    err = np.max(np.abs(dequantize(q).data.astype(np.float64) - t.data))
    assert err <= q.scale / 2 + 1e-6


def test_quantize8_monotone():
    t = random_fill(Shape([300]), seed=8, lo=-2.0, hi=3.0)
    q = quantize8(t)
    order = np.argsort(t.data, kind="mergesort")
    levels = np.frombuffer(q.payload, dtype=np.uint8)[order]
    assert np.all(np.diff(levels.astype(int)) >= 0)


def test_quantize8_deterministic():
    t = random_fill(Shape([64]), seed=9, lo=-1.0, hi=1.0)
    assert quantize8(t).payload == quantize8(t).payload


def test_symmetric_mode_has_no_zero_point():
    t = random_fill(Shape([128]), seed=11, lo=0.0, hi=6.0)
    q = quantize8(t, symmetric=True)
    assert q.zero_point == 0
    assert q.symmetric
    err = np.max(np.abs(dequantize(q).data.astype(np.float64) - t.data))
    assert err <= q.scale / 2 + 1e-6


@pytest.mark.parametrize("symmetric", [False, True], ids=["affine", "symmetric"])
def test_quantize8_underflowing_scale_raises_codec_error(symmetric):
    # (1e-45 - 0) / 255 rounds to a binary32 scale of 0
    t = make_tensor([2], [0.0, 1e-45])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CodecError, match="underflows"):
            quantize8(t, symmetric=symmetric)


def test_symmetric_mode_clips_in_float64_before_narrowing():
    # -1e6 / scale is about -2.6e11: it must clip to level 0, not wrap
    q = quantize8(make_tensor([3], [-1e6, 0.0, 1e-3]), symmetric=True)
    assert list(q.payload) == [0, 0, 255]


# --- quantize16 -----------------------------------------------------------------

def test_quantize16_exact_for_representable_values():
    t = make_tensor([3], [1.0, 0.5, -2.0])
    q = quantize16(t)
    assert not q.saturated
    assert dequantize(q) == t


def test_quantize16_rounds_to_nearest_even():
    x = 1.0 + 2.0 ** -12
    t = make_tensor([1], [x])
    q = quantize16(t)
    got = dequantize(q).tolist()[0]
    ref_bits = ref_float_to_half_bits(float(np.float32(x)))
    assert struct.unpack("<H", q.payload)[0] == ref_bits
    assert abs(got - x) / abs(x) <= 2.0 ** -11


def test_quantize16_matches_reference_converter():
    t = random_fill(Shape([400]), seed=13, lo=-300.0, hi=300.0)
    q = quantize16(t)
    got = struct.unpack(f"<{t.numel}H", q.payload)
    for x, bits in zip(t.data, got):
        assert bits == ref_float_to_half_bits(float(x))


def test_quantize16_edge_bits_match_numpy():
    for x in (0.0, -0.0, 6.1e-5, -6.0e-5, 5.96e-8, 2.0 ** -24, 2.0 ** -25,
              65504.0, 65519.0, 1.0, -1.0, 0.1, 1e-7, 3.14159):
        assert numpy_half_bits(x) == ref_float_to_half_bits(float(np.float32(x)))


def test_quantize16_saturates_with_flag():
    t = make_tensor([2], [1e6, -1e6])
    q = quantize16(t)
    assert q.saturated
    out = dequantize(q).tolist()
    assert out == [BINARY16_MAX, -BINARY16_MAX]


# --- dequantize -----------------------------------------------------------------

def test_width32_passthrough_bit_identical():
    t = random_fill(Shape([100]), seed=21, lo=-5.0, hi=5.0)
    q = passthrough32(t)
    back = dequantize(q)
    assert back == t
    assert back.data.tobytes() == t.data.tobytes()


def test_truncated_payload_raises_codec_error():
    t = random_fill(Shape([16]), seed=22, lo=-1.0, hi=1.0)
    q = quantize8(t)
    with pytest.raises(CodecError):
        dataclasses.replace(q, payload=q.payload[:-1])
    # dequantize revalidates even if the frozen instance was force-mutated
    object.__setattr__(q, "payload", q.payload[:-1])
    with pytest.raises(CodecError):
        dequantize(q)


_FLT_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("scale, zero_point", [
    (1.0, 0),
    (float(np.float32(2.0 / 255.0)), 128),
    (float(np.float32(0.1)), 200),
    (float(np.float32(1e-30)), 37),
    (float(np.float32(_FLT_MAX / 255.0)), 0),
    (float(np.float32(_FLT_MAX / 255.0)), 255),
    (float(np.float32(1e-45)), 128),  # subnormal scale
    (float(np.float32(1e-40)), 0),  # products cross from subnormal to normal
])
def test_width8_dequantize_bits_match_float64_formula(scale, zero_point):
    levels = np.random.default_rng(23).permutation(np.tile(np.arange(256), 2))
    q = QuantizedTensor(Shape([levels.size]), 8, scale, zero_point,
                        levels.astype(np.uint8).tobytes())
    # one rounding to float32 of the float64 product, element by element
    ref = np.array([np.float32(scale * (int(v) - zero_point)) for v in levels])
    got = dequantize(q).data
    assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def test_width8_large_constant_dequantizes_without_warning():
    t = make_tensor([4], [1e37] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dequantize(quantize8(t)) == t


@pytest.mark.parametrize("msg_type, scale, payload", [
    (MsgType.QTENSOR8, 1e38, b"\xff"),
    (MsgType.QTENSOR16, 1.0, np.array([np.nan], dtype="<f2").tobytes()),
    (MsgType.FTENSOR32, 1.0, np.array([np.inf], dtype="<f4").tobytes()),
], ids=["qtensor8_overflow", "qtensor16_nan", "ftensor32_inf"])
def test_dequantize_rejects_non_finite_values(msg_type, scale, payload):
    q = message_to_quantized(WireMessage(msg_type, (1,), scale, 0, payload))
    # the error is the only signal: no floating-point warning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CodecError, match="NaN or Inf"):
            dequantize(q)


@pytest.mark.parametrize("quantize", [quantize8, quantize16, passthrough32])
def test_dequantized_tensor_is_read_only_and_owns_its_array(quantize):
    q = quantize(random_fill(Shape([3, 5]), seed=24, lo=-1.0, hi=1.0))
    data = dequantize(q).data
    assert not data.flags.writeable
    assert not np.shares_memory(data, np.frombuffer(q.payload, dtype=np.uint8))


# --- sizes ----------------------------------------------------------------------

def test_header_bytes_budget():
    assert wire_header_bytes(0) == 23
    assert wire_header_bytes(3) == 35
    assert wire_header_bytes(8) == 55 <= 64


def test_payload_ratio_width8_vs_width32_is_quarter():
    t = random_fill(Shape([1000]), seed=30, lo=-1.0, hi=1.0)
    r8 = data_size(quantize8(t))
    r32 = data_size(passthrough32(t))
    assert r8.payload_bytes / r32.payload_bytes == 0.25


def test_size_report_algebra():
    t = random_fill(Shape([3, 9, 11]), seed=31, lo=-1.0, hi=1.0)
    for q in (quantize8(t), quantize16(t), passthrough32(t)):
        rep = data_size(q)
        assert rep.total_bytes == rep.payload_bytes + rep.header_bytes


def test_size_totals_increase_with_width():
    t = random_fill(Shape([65]), seed=32, lo=-1.0, hi=1.0)
    totals = [data_size(q).total_bytes
              for q in (quantize8(t), quantize16(t), passthrough32(t))]
    assert totals[0] < totals[1] < totals[2]


def test_table_ratio_with_bottleneck_numel():
    # 177285-element bottleneck at width 8 against a documented reference
    t = random_fill(Shape([3, 223, 265]), seed=33, lo=-1.0, hi=1.0)
    ratio = ratio_vs(quantize8(t), 275800)
    assert ratio == pytest.approx(0.643, abs=0.001)


def test_ratio_requires_positive_reference():
    t = random_fill(Shape([4]), seed=34, lo=-1.0, hi=1.0)
    q = quantize8(t)
    with pytest.raises(RangeError):
        ratio_vs(q, 0)
    with pytest.raises(RangeError):
        ratio_vs(q, -10)


@given(st.lists(st.floats(min_value=-50, max_value=50, width=32),
                min_size=1, max_size=64))
def test_roundtrip_bound_property(values):
    t = make_tensor([len(values)], values)
    q = quantize8(t)
    err = np.max(np.abs(dequantize(q).data.astype(np.float64)
                        - t.data.astype(np.float64)))
    assert err <= q.scale / 2 + 1e-6
