import dataclasses
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import splitwire.codec
from splitwire.codec import BINARY16_MAX, dequantize, quantize8, quantize16
from splitwire.errors import CodecError, ProtocolError, RangeError
from splitwire.pipeline.wire import (
    ELEMENT_BITS,
    MsgType,
    WireMessage,
    data_size,
    decode_message,
    encode_message,
    tensor_to_message,
    wire_header_bytes,
)
from splitwire.tensor import Shape, random_fill


def f32(dims, values):
    return np.array(values, dtype=np.float32).reshape(dims)


def same(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


# --- independent oracles ------------------------------------------------------

def float64_levels(x, scale, zero_point):
    """quantize8's payload as its levels were computed through float64."""
    q = x.astype(np.float64)
    q /= scale
    np.rint(q, out=q)
    q += zero_point
    return q.astype(np.uint8).tobytes()


class Float64RintSpy:
    """Stands in for numpy inside splitwire.codec; records the size of every
    rint taken in float64, the formula quantize8 redoes near-ties with."""

    def __init__(self):
        self.float64_sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def rint(self, a, *args, **kwargs):
        if a.dtype == np.float64:
            self.float64_sizes.append(a.size)
        return np.rint(a, *args, **kwargs)


def quantize8_spied(t):
    """quantize8(t) and the number of elements it redid in float64."""
    spy = Float64RintSpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitwire.codec, "np", spy)
        q = quantize8(t)
    return q, sum(spy.float64_sizes)


def scale_underflows(values):
    """Whether quantize8 rejects ``values``: not constant, and the binary32
    scale of their range widened to include 0 underflows."""
    lo, hi = min(min(values), 0.0), max(max(values), 0.0)
    return min(values) < max(values) and np.float32((hi - lo) / 255) == 0


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
    t = f32([2], [5.0, 5.0])
    assert same(dequantize(quantize8(t)), t)


def test_constant_negative_tensor_roundtrips_exactly():
    t = f32([3], [-2.5, -2.5, -2.5])
    q = quantize8(t)
    assert same(dequantize(q), t)
    assert q.scale > 0
    assert 0 <= q.zero_point <= 255


def test_constant_zero_tensor():
    t = f32([4], [0.0] * 4)
    q = quantize8(t)
    assert q.scale == 1.0 and q.zero_point == 0
    assert same(dequantize(q), t)


def test_grid_aligned_tensor_is_exact():
    values = [float(i) for i in range(256)]
    t = f32([256], values)
    q = quantize8(t)
    assert q.scale == 1.0
    assert q.zero_point == 0
    assert same(dequantize(q), t)


def test_uniform_tensor_matches_rounding_oracle():
    t = random_fill(Shape([257]), seed=5, lo=-1.0, hi=1.0)
    q = quantize8(t)
    m, big = float(t.min()), float(t.max())
    assert q.scale == pytest.approx((big - m) / 255, rel=1e-6)
    expected = oracle_affine_quant(t.astype(np.float64), q.scale, q.zero_point)
    assert list(q.payload) == expected
    err = np.max(np.abs(dequantize(q).astype(np.float64) - t))
    assert err <= q.scale / 2 + 1e-6


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.0, 4.0), (10.0, 11.0),
                                   (-8.0, -3.0), (-1e-3, 1e-3)])
def test_roundtrip_bound_for_sign_definite_ranges(lo, hi):
    # The affine range always covers zero, so the half-step bound holds even
    # when every value has the same sign.
    t = random_fill(Shape([500]), seed=17, lo=lo, hi=hi)
    q = quantize8(t)
    err = np.max(np.abs(dequantize(q).astype(np.float64) - t))
    assert err <= q.scale / 2 + 1e-6


def test_quantize8_monotone():
    t = random_fill(Shape([300]), seed=8, lo=-2.0, hi=3.0)
    q = quantize8(t)
    order = np.argsort(t, kind="mergesort")
    levels = np.frombuffer(q.payload, dtype=np.uint8)[order]
    assert np.all(np.diff(levels.astype(int)) >= 0)


def test_quantize8_deterministic():
    t = random_fill(Shape([64]), seed=9, lo=-1.0, hi=1.0)
    assert quantize8(t).payload == quantize8(t).payload


@pytest.mark.parametrize("values", [[0.0, 1e-45], [-1e-45, 0.0]], ids=["affine", "negative"])
def test_quantize8_underflowing_scale_raises_codec_error(values):
    # a range 1e-45 wide over 255 levels rounds to a binary32 scale of 0
    t = f32([2], values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CodecError, match="underflows"):
            quantize8(t)


@pytest.mark.parametrize("values", [
    [6.28342231403248e-42, 4.097957229071495e-41, 4.912251766690646e-41],
    [-3.160628686284625e-41, -5.62677385364987e-41, -1.394011712310328e-41],
], ids=["above-255", "below-0"])
def test_quantize8_clips_in_float64_before_narrowing(values):
    # a subnormal binary32 scale keeps few bits and rounds down, so at that
    # scale the range's end would land on level 256 (or -1 below the zero
    # point): the scale must widen until every level fits, with no wrap in
    # the uint8 cast and no clipped level breaking the half-step bound
    t = f32([3], values)
    q = quantize8(t)
    x = t.astype(np.float64)
    levels = np.rint(x / q.scale) + q.zero_point
    assert levels.min() >= 0 and levels.max() <= 255
    assert list(q.payload) == levels.astype(int).tolist()
    err = np.max(np.abs(dequantize(q).astype(np.float64) - x))
    assert err <= q.scale / 2


# the range [0, 255] has scale 1 and [0, 191.25] scale 0.75, so x / scale is
# exactly a half-integer at these ties: both round half to even
EXACT_TIES = [0.0, 0.5, 1.5, 2.5, 253.5, 254.5, 255.0]
EXACT_TIES_AT_0_75 = [0.0, 0.375, 1.125, 1.875, 190.875, 191.25]
# a subnormal scale of 1.9e-43, whose reciprocal overflows binary32
RECIPROCAL_OVERFLOWS = [6.28342231403248e-42, 4.097957229071495e-41, 4.912251766690646e-41]
LEVEL_BLOCK = splitwire.codec._LEVEL_BLOCK
# the reciprocal-overflow case tiled over three level blocks, the last partial
RECIPROCAL_OVERFLOWS_BLOCKS = np.resize(RECIPROCAL_OVERFLOWS, 2 * LEVEL_BLOCK + 7).tolist()


def splice_at_block_edges(x, values):
    """Write ``values``, cycling, on both sides of every level-block edge of ``x``."""
    edges = np.arange(0, x.size + 1, LEVEL_BLOCK)
    at = np.unique(np.clip(np.concatenate([edges - 1, edges]), 0, x.size - 1))
    x[at] = np.resize(np.array(values, dtype=np.float32), at.size)


@given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
@example(EXACT_TIES)
@example(EXACT_TIES_AT_0_75)
@example(RECIPROCAL_OVERFLOWS)
@example([-0.0, 1.0, 0.0, -0.0])
@example([-0.0, -1.0])
@example([-3.4028234663852886e38, 3.4028234663852886e38, 1e-45, -1e-45])
def test_quantize8_levels_equal_the_float64_formula(values):
    # subnormals included: hypothesis draws them for binary32 by default
    assume(not scale_underflows(values))
    t = f32([len(values)], values)
    q = quantize8(t)
    assert q.payload == float64_levels(t, q.scale, q.zero_point)


@given(st.sampled_from([1, LEVEL_BLOCK - 1, LEVEL_BLOCK, LEVEL_BLOCK + 1, 2 * LEVEL_BLOCK + 7]),
       st.integers(0, 2**64 - 1),
       st.floats(-1e3, 1e3, width=32), st.floats(-1e3, 1e3, width=32),
       st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), max_size=4))
@example(2 * LEVEL_BLOCK + 7, 1, 0.0, 254.0, EXACT_TIES)
@example(LEVEL_BLOCK + 1, 2, 0.0, 191.0, EXACT_TIES_AT_0_75)
@example(2 * LEVEL_BLOCK + 7, 3, 0.0, 1e-41, RECIPROCAL_OVERFLOWS)
def test_quantize8_levels_in_blocks_equal_the_float64_formula(n, seed, lo, hi, spliced):
    # seeded values fill every block; the drawn ones sit at the block edges
    assume(lo < hi)
    t = random_fill([n], seed, lo, hi).copy()
    if spliced:
        splice_at_block_edges(t, spliced)
    assume(not scale_underflows([float(t.min()), float(t.max())]))
    q = quantize8(t)
    assert q.payload == float64_levels(t, q.scale, q.zero_point)


@given(st.floats(width=32, allow_nan=False, allow_infinity=False),
       st.floats(width=32, allow_nan=False, allow_infinity=False),
       st.lists(st.tuples(st.integers(0, 254), st.integers(-4, 4)), min_size=1, max_size=32))
@example(0.0, 255.0, [(0, 0), (1, 0), (2, 0), (254, 0)])
@example(-1.0, 1.0, [(127, 1), (127, -1), (128, 0), (3, 4)])
def test_quantize8_near_ties_equal_the_float64_formula(a, b, ties):
    # binary32(scale * (level - zero_point + 1/2)), moved by up to 4 ulps,
    # is within 2**-13 of a half-integer of the scale: each takes the redo
    assume(a < b and not scale_underflows([a, b]))
    ends = quantize8(f32([2], [a, b]))
    near = []
    for level, ulps in ties:
        v = np.float32(ends.scale * (level - ends.zero_point + 0.5))
        for _ in range(abs(ulps)):
            v = np.nextafter(v, np.float32(math.copysign(math.inf, ulps)))
        if a <= v <= b:
            near.append(v)
    t = f32([2 + len(near)], [a, b, *near])
    q, redone = quantize8_spied(t)
    assert (q.scale, q.zero_point) == (ends.scale, ends.zero_point)
    assert q.payload == float64_levels(t, q.scale, q.zero_point)
    assert redone >= len(near)


@pytest.mark.parametrize("values, redone", [
    ([0.0, 1.0, 2.0, 255.0], 0),
    (EXACT_TIES, 5),
    (EXACT_TIES_AT_0_75, 4),
    (RECIPROCAL_OVERFLOWS, 3),
    (RECIPROCAL_OVERFLOWS_BLOCKS, len(RECIPROCAL_OVERFLOWS_BLOCKS)),
], ids=["no-ties", "ties-at-scale-1", "ties-at-scale-0.75", "reciprocal-overflows",
        "reciprocal-overflows-in-every-block"])
def test_quantize8_redoes_only_near_ties_in_float64(values, redone):
    t = f32([len(values)], values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, n = quantize8_spied(t)
    assert n == redone
    assert q.payload == float64_levels(t, q.scale, q.zero_point)


def test_quantize8_temporaries_stay_bounded():
    # the whole-tensor level pass peaked at 1.77 MB for a 0.71 MB tensor
    t = random_fill(Shape([3, 223, 265]), seed=1, lo=-1.0, hi=1.0)
    quantize8(t[:1])
    tracemalloc.start()
    try:
        q = quantize8(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q.payload) == t.size
    assert peak <= 1_200_000


# --- quantize16 -----------------------------------------------------------------

def test_quantize16_exact_for_representable_values():
    t = f32([3], [1.0, 0.5, -2.0])
    q = quantize16(t)
    assert q.payload == t.astype("<f2").tobytes()
    assert same(dequantize(q), t)


def test_quantize16_rounds_to_nearest_even():
    x = 1.0 + 2.0 ** -12
    t = f32([1], [x])
    q = quantize16(t)
    got = dequantize(q).tolist()[0]
    ref_bits = ref_float_to_half_bits(float(np.float32(x)))
    assert struct.unpack("<H", q.payload)[0] == ref_bits
    assert abs(got - x) / abs(x) <= 2.0 ** -11


def test_quantize16_matches_reference_converter():
    t = random_fill(Shape([400]), seed=13, lo=-300.0, hi=300.0)
    q = quantize16(t)
    got = struct.unpack(f"<{t.size}H", q.payload)
    for x, bits in zip(t, got):
        assert bits == ref_float_to_half_bits(float(x))


def test_quantize16_edge_bits_match_numpy():
    for x in (0.0, -0.0, 6.1e-5, -6.0e-5, 5.96e-8, 2.0 ** -24, 2.0 ** -25,
              65504.0, 65519.0, 1.0, -1.0, 0.1, 1e-7, 3.14159):
        assert numpy_half_bits(x) == ref_float_to_half_bits(float(np.float32(x)))


def test_quantize16_saturates_to_binary16_max():
    t = f32([2], [1e6, -1e6])
    q = quantize16(t)
    assert q.payload == np.array([BINARY16_MAX, -BINARY16_MAX], dtype="<f2").tobytes()
    out = dequantize(q).tolist()
    assert out == [BINARY16_MAX, -BINARY16_MAX]


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 65504.0), (-65504.0, 65504.0),
                                    (-65600.0, 0.0), (1.0, 70000.0), (-1e9, 1e9)])
def test_quantize16_saturated_exactly_when_a_value_leaves_binary16(lo, hi):
    t = random_fill(Shape([64]), seed=25, lo=lo, hi=hi)
    t = f32([66], [*t.tolist(), lo, np.nextafter(np.float32(hi), np.float32(lo))])
    # the values beyond binary16 are clamped, not cast to Inf
    clamped = np.clip(t, -BINARY16_MAX, BINARY16_MAX)
    assert quantize16(t).payload == clamped.astype("<f2").tobytes()


@pytest.mark.parametrize("quantize", [quantize8, quantize16])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_quantizers_reject_non_finite_values(quantize, bad):
    # the tensor rule does not check values; the codec does
    t = f32([4], [0.5, bad, -0.25, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CodecError, match="NaN or Inf"):
            quantize(t)


# --- dequantize -----------------------------------------------------------------

def test_width32_passthrough_bit_identical():
    t = random_fill(Shape([100]), seed=21, lo=-5.0, hi=5.0)
    q = tensor_to_message(t)
    back = dequantize(q)
    assert same(back, t)
    assert back.tobytes() == t.tobytes()


def test_truncated_payload_raises_protocol_error():
    # the message is the one owner of the payload-length rule
    q = quantize8(random_fill(Shape([16]), seed=22, lo=-1.0, hi=1.0))
    with pytest.raises(ProtocolError, match="payload is"):
        dataclasses.replace(q, payload=q.payload[:-1])


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
    q = WireMessage(MsgType.QTENSOR8, (levels.size,), scale, zero_point,
                    levels.astype(np.uint8).tobytes())
    # one rounding to float32 of the float64 product, element by element
    ref = np.array([np.float32(scale * (int(v) - zero_point)) for v in levels])
    got = dequantize(q)
    assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def test_width8_large_constant_dequantizes_without_warning():
    t = f32([4], [1e37] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same(dequantize(quantize8(t)), t)


@pytest.mark.parametrize("msg_type, scale, payload", [
    (MsgType.QTENSOR8, 1e38, b"\xff"),
    (MsgType.QTENSOR16, 1.0, np.array([np.nan], dtype="<f2").tobytes()),
    (MsgType.FTENSOR32, 1.0, np.array([np.inf], dtype="<f4").tobytes()),
], ids=["qtensor8_overflow", "qtensor16_nan", "ftensor32_inf"])
def test_dequantize_rejects_non_finite_values(msg_type, scale, payload):
    q = WireMessage(msg_type, (1,), scale, 0, payload)
    # the error is the only signal: no floating-point warning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CodecError, match="NaN or Inf"):
            dequantize(q)


@pytest.mark.parametrize("scale, zero_point, match", [
    (0.0, 0, "scale must be finite and > 0"),
    (-1.0, 0, "scale must be finite and > 0"),
    (1.0, -1, r"zero_point must be in \[0, 255\]"),
    (1.0, 256, r"zero_point must be in \[0, 255\]"),
], ids=["zero-scale", "negative-scale", "zero-point-below-0", "zero-point-above-255"])
def test_dequantize_rejects_a_bad_width8_scale_or_zero_point(scale, zero_point, match):
    with pytest.raises(CodecError, match=match):
        dequantize(WireMessage(MsgType.QTENSOR8, (2,), scale, zero_point, b"\x00\x01"))


@pytest.mark.parametrize("msg_type", [MsgType.QTENSOR16, MsgType.FTENSOR32],
                         ids=["qtensor16", "ftensor32"])
def test_dequantize_ignores_scale_and_zero_point_above_width8(msg_type):
    payload = np.array([1.5, -2.0], dtype=f"<f{ELEMENT_BITS[msg_type] // 8}").tobytes()
    for scale, zero_point in ((1.0, 0), (-3.0, -7), (0.0, 300)):
        got = dequantize(WireMessage(msg_type, (2,), scale, zero_point, payload))
        assert got.tolist() == [1.5, -2.0]


def _messages():
    """Any message of any type: rank <= 3 and extents <= 4 for a tensor, any
    finite binary32 scale, any int32 zero point, a payload of the right length."""
    finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
    # any int32, with the valid width-8 zero points drawn as often as the rest
    int32 = st.integers(0, 255) | st.integers(-(2 ** 31), 2 ** 31 - 1)

    def build(msg_type):
        if msg_type in ELEMENT_BITS:
            dims = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
        else:
            dims = st.just(())
        return dims.flatmap(lambda d: st.builds(
            WireMessage, st.just(msg_type), st.just(d), finite32, int32,
            payload_of(msg_type, d)))

    def payload_of(msg_type, dims):
        if msg_type is MsgType.EMPTY_RESULT:
            return st.just(b"")
        if msg_type not in ELEMENT_BITS:
            return st.binary(max_size=32)
        n = math.prod(dims) * ELEMENT_BITS[msg_type] // 8
        return st.binary(min_size=n, max_size=n)

    return st.sampled_from(MsgType).flatmap(build)


@given(_messages())
def test_dequantize_is_total_over_wire_messages(m):
    m = decode_message(encode_message(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            t = dequantize(m)
        except CodecError:
            return
    assert t.dtype == np.float32 and not t.flags.writeable
    assert t.shape == m.dims
    assert np.isfinite(t).all()


@pytest.mark.parametrize("quantize", [quantize8, quantize16, tensor_to_message])
def test_dequantized_tensor_is_read_only_and_owns_its_array(quantize):
    q = quantize(random_fill(Shape([3, 5]), seed=24, lo=-1.0, hi=1.0))
    t = dequantize(q)
    assert t.dtype == np.float32 and t.shape == (3, 5)
    assert not t.flags.writeable
    assert not np.shares_memory(t, np.frombuffer(q.payload, dtype=np.uint8))


# --- sizes ----------------------------------------------------------------------

def test_header_bytes_budget():
    assert wire_header_bytes(0) == 23
    assert wire_header_bytes(3) == 35
    assert wire_header_bytes(8) == 55 <= 64


def test_payload_ratio_width8_vs_width32_is_quarter():
    t = random_fill(Shape([1000]), seed=30, lo=-1.0, hi=1.0)
    r8 = data_size(quantize8(t))
    r32 = data_size(tensor_to_message(t))
    assert r8.payload_bytes / r32.payload_bytes == 0.25


def test_size_report_algebra():
    t = random_fill(Shape([3, 9, 11]), seed=31, lo=-1.0, hi=1.0)
    for q in (quantize8(t), quantize16(t), tensor_to_message(t)):
        rep = data_size(q)
        assert rep.total_bytes == rep.payload_bytes + rep.header_bytes


def test_size_totals_increase_with_width():
    t = random_fill(Shape([65]), seed=32, lo=-1.0, hi=1.0)
    totals = [data_size(q).total_bytes
              for q in (quantize8(t), quantize16(t), tensor_to_message(t))]
    assert totals[0] < totals[1] < totals[2]


def test_table_ratio_with_bottleneck_numel():
    # 177285-element bottleneck at width 8 against a documented reference
    t = random_fill(Shape([3, 223, 265]), seed=33, lo=-1.0, hi=1.0)
    ratio = data_size(quantize8(t), 275800).ratio_vs_reference
    assert ratio == pytest.approx(0.643, abs=0.001)


def test_ratio_requires_positive_reference():
    t = random_fill(Shape([4]), seed=34, lo=-1.0, hi=1.0)
    q = quantize8(t)
    with pytest.raises(RangeError):
        data_size(q, 0)
    with pytest.raises(RangeError):
        data_size(q, -10)


@given(st.lists(st.floats(min_value=-50, max_value=50, width=32),
                min_size=1, max_size=64))
@example([6.28342231403248e-42, 4.097957229071495e-41, 4.912251766690646e-41])
@example([-3.160628686284625e-41, -5.62677385364987e-41, -1.394011712310328e-41])
@example([1e-45])  # constant, so no underflow error, though [0, 1e-45] underflows
def test_roundtrip_bound_property(values):
    t = f32([len(values)], values)
    if scale_underflows(values):
        # the documented error for a range whose binary32 scale underflows
        with pytest.raises(CodecError, match="underflows"):
            quantize8(t)
        return
    q = quantize8(t)
    err = np.max(np.abs(dequantize(q).astype(np.float64)
                        - t.astype(np.float64)))
    # beyond scale/2, only the float32 rounding of the dequantized value,
    # at most one ulp of the largest magnitude (and never more than 1e-6)
    ulp = float(np.spacing(np.abs(t).max()))
    assert err <= q.scale / 2 + min(ulp, 1e-6)
