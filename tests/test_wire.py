import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from splitwire.codec import dequantize, quantize8, quantize16
from splitwire.errors import ArgumentError, CodecError, ProtocolError, TransportError
from splitwire.pipeline.wire import (
    MAGIC,
    MAX_NDIM,
    MAX_PAYLOAD_BYTES,
    MsgType,
    WireMessage,
    check_payload_fits,
    decode_message,
    detection_result_message,
    empty_result_message,
    encode_message,
    load_message,
    recv_frame,
    save_message,
    tensor_to_message,
    wire_header_bytes,
)
from splitwire.tensor import Shape, random_fill


def qmsg(shape, seed=0):
    t = random_fill(Shape(shape), seed, -1.0, 1.0)
    return quantize8(t)


def test_roundtrip_qtensor8_is_bit_exact():
    m = qmsg([3, 223, 265])
    raw = encode_message(m)
    again = decode_message(raw)
    assert again == m
    assert encode_message(again) == raw


def test_empty_result_framing_bytes():
    raw = encode_message(empty_result_message())
    # magic(4) + version(1) + type(1) + ndim(1) + scale(4) + zp(4) + len(8),
    # no dims and no payload
    assert len(raw) == 4 + 1 + 1 + 1 + 4 + 4 + 8 == wire_header_bytes(0) == 23
    assert raw[:4] == MAGIC
    assert raw[5] == MsgType.EMPTY_RESULT


def test_header_stays_under_64_byte_budget():
    m = qmsg([1] * MAX_NDIM, seed=2)
    assert m.header_bytes == wire_header_bytes(MAX_NDIM) == 55 <= 64


@pytest.mark.parametrize("rank", range(1, MAX_NDIM + 1))
def test_encoded_header_size_matches_wire_header_bytes(rank):
    m = qmsg([2] * rank, seed=rank)
    assert len(encode_message(m)) - len(m.payload) == wire_header_bytes(rank)


def test_corrupt_magic_rejected():
    raw = bytearray(encode_message(qmsg([4])))
    raw[:4] = b"XXXX"
    with pytest.raises(ProtocolError):
        decode_message(bytes(raw))


def test_unknown_version_rejected():
    raw = bytearray(encode_message(qmsg([4])))
    raw[4] = 9
    with pytest.raises(ProtocolError):
        decode_message(bytes(raw))


def test_unknown_msg_type_rejected():
    raw = bytearray(encode_message(qmsg([4])))
    raw[5] = 200
    with pytest.raises(ProtocolError):
        decode_message(bytes(raw))


def test_truncation_rejected_at_every_length():
    raw = encode_message(qmsg([2, 3]))
    for cut in range(len(raw)):
        with pytest.raises(ProtocolError):
            decode_message(raw[:cut])


def test_trailing_garbage_rejected():
    raw = encode_message(qmsg([2, 3]))
    with pytest.raises(ProtocolError):
        decode_message(raw + b"\x00")


def test_payload_len_mismatch_rejected():
    m = qmsg([8])
    raw = bytearray(encode_message(m))
    off = 7 + 4 * len(m.dims) + 8  # start of payload_len
    raw[off:off + 8] = struct.pack(">Q", 9)
    with pytest.raises(ProtocolError):
        decode_message(bytes(raw))


def test_zero_dim_rejected():
    with pytest.raises(ProtocolError):
        WireMessage(MsgType.QTENSOR8, (0,), 1.0, 0, b"")


def test_ndim_limit_enforced():
    with pytest.raises(ProtocolError):
        WireMessage(MsgType.QTENSOR8, (1,) * 9, 1.0, 0, b"\x00")


def test_non_finite_scale_rejected():
    with pytest.raises(ProtocolError):
        WireMessage(MsgType.QTENSOR8, (1,), float("nan"), 0, b"\x00")


@pytest.mark.parametrize("scale", [3.5e38, 1e39, -1e39, float("inf")])
def test_scale_beyond_binary32_is_a_protocol_error_not_a_warning(scale):
    # the cast to binary32 overflows to inf; no RuntimeWarning escapes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProtocolError, match="scale must be finite"):
            WireMessage(MsgType.QTENSOR8, (1,), scale, 0, b"\x01")


def test_scale_is_rounded_to_binary32_once():
    m = WireMessage(MsgType.QTENSOR8, (1,), 0.1, 0, b"\x01")
    assert m.scale == float(np.float32(0.1)) != 0.1
    assert decode_message(encode_message(m)) == m


_FLT_MAX = float(np.finfo(np.float32).max)
_MIDPOINT_ABOVE_FLT_MAX = 2.0 ** 128 - 2.0 ** 103  # a tie: rounds to even, past FLT_MAX


@given(st.floats())
@example(_FLT_MAX)
@example(_MIDPOINT_ABOVE_FLT_MAX)
@example(math.nextafter(_MIDPOINT_ABOVE_FLT_MAX, 0.0))  # the largest that rounds down
@example(2.0 ** -149)
@example(2.0 ** -150)
@example(-0.0)
def test_scale_rounds_to_binary32_as_numpy_does(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            want = float(np.float32(x))
        if math.isfinite(want):
            got = WireMessage(MsgType.QTENSOR8, (1,), x, 0, b"\x01").scale
            assert struct.pack(">d", got) == struct.pack(">d", want)
        else:
            with pytest.raises(ProtocolError, match="scale must be finite"):
                WireMessage(MsgType.QTENSOR8, (1,), x, 0, b"\x01")


def test_tensor_payload_length_checked():
    with pytest.raises(ProtocolError):
        WireMessage(MsgType.QTENSOR16, (4,), 1.0, 0, b"\x00" * 7)


@pytest.mark.parametrize("dims, width", [((MAX_PAYLOAD_BYTES,), 8), ((2048, 4096), 16),
                                         ((2, 2048, 1024), 32)])
def test_check_payload_fits_refuses_only_what_exceeds_the_cap(dims, width):
    check_payload_fits(dims, width)  # exactly at the cap
    with pytest.raises(ArgumentError, match="MAX_PAYLOAD_BYTES"):
        check_payload_fits((*dims[:-1], dims[-1] + 1), width)


def test_empty_result_must_be_empty():
    with pytest.raises(ProtocolError):
        WireMessage(MsgType.EMPTY_RESULT, payload=b"x")
    with pytest.raises(ProtocolError):
        WireMessage(MsgType.DETECTION_RESULT, dims=(2,), payload=b"xxxxxxxx")


def test_float_tensor_roundtrip():
    t = random_fill(Shape([5, 7]), 3, -10.0, 10.0)
    m = tensor_to_message(t)
    back = dequantize(decode_message(encode_message(m)))
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()


def test_quantized_roundtrip_via_message():
    t = random_fill(Shape([6, 6]), 4, -2.0, 2.0)
    for q in (quantize8(t), quantize16(t)):
        back = decode_message(encode_message(q))
        assert back == q
        assert dequantize(back).tobytes() == dequantize(q).tobytes()


def test_dequantize_rejects_non_tensor_types():
    for m in (WireMessage(MsgType.JPEG_IMAGE, payload=b"jpegbytes"),
              detection_result_message(b"\x01" * 32), empty_result_message()):
        with pytest.raises(CodecError, match="does not carry a tensor"):
            dequantize(m)


class _Dribble:
    """A stream that hands out one byte per recv, then end-of-stream."""

    def __init__(self, data: bytes):
        self.data = data

    def recv(self, n: int) -> bytes:
        chunk, self.data = self.data[:1], self.data[1:]
        return chunk

    def recv_into(self, buf, n: int = 0) -> int:
        chunk = self.recv(1)
        buf[:len(chunk)] = chunk
        return len(chunk)


def test_recv_frame_reassembles_a_dribbled_frame():
    frame = encode_message(qmsg([2, 3, 4], seed=5))
    stream = _Dribble(frame + frame)
    assert recv_frame(stream) == frame
    assert recv_frame(stream) == frame
    assert recv_frame(stream) is None


def test_recv_frame_cut_mid_payload_is_a_transport_error():
    frame = encode_message(qmsg([2, 3, 4], seed=6))
    with pytest.raises(TransportError, match="closed mid-frame"):
        recv_frame(_Dribble(frame[:-5]))


def test_save_and_load_message(tmp_path):
    m = qmsg([3, 4, 5], seed=9)
    path = tmp_path / "frame.bin"
    save_message(str(path), m)
    assert load_message(str(path)) == m


def test_detection_result_carries_digest():
    m = detection_result_message(b"\x01" * 32)
    back = decode_message(encode_message(m))
    assert back.msg_type is MsgType.DETECTION_RESULT
    assert back.payload == b"\x01" * 32


def test_identity_over_randomized_messages():
    rng = np.random.default_rng(1234)
    for _ in range(500):
        mt = MsgType(int(rng.integers(0, 6)))
        if mt in (MsgType.QTENSOR8, MsgType.QTENSOR16, MsgType.FTENSOR32):
            ndim = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(1, 6, size=ndim))
            numel = int(np.prod(dims))
            elem = {MsgType.QTENSOR8: 1, MsgType.QTENSOR16: 2, MsgType.FTENSOR32: 4}[mt]
            payload = rng.bytes(numel * elem)
            scale = float(np.float32(rng.uniform(1e-3, 10)))
            zp = int(rng.integers(0, 256))
            m = WireMessage(mt, dims, scale, zp, payload)
        elif mt is MsgType.EMPTY_RESULT:
            m = WireMessage(mt)
        else:
            m = WireMessage(mt, payload=rng.bytes(int(rng.integers(0, 64))))
        assert decode_message(encode_message(m)) == m


def test_fuzz_decode_never_crashes():
    rng = np.random.default_rng(99)
    base = encode_message(qmsg([3, 3]))
    ok = 0
    for i in range(3000):
        if i % 3 == 0:
            blob = rng.bytes(int(rng.integers(0, 80)))
        else:
            mutated = bytearray(base)
            for _ in range(int(rng.integers(1, 6))):
                mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
            blob = bytes(mutated)
        try:
            decode_message(blob)
            ok += 1
        except ProtocolError:
            pass
    assert ok >= 0  # reaching here means no crash


@given(st.binary(max_size=120))
def test_fuzz_decode_property(blob):
    try:
        decode_message(blob)
    except ProtocolError:
        pass
