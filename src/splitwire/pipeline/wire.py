"""Binary wire framing for head/tail messages.

Frame layout, all header integers big-endian:

    offset  size  field
    0       4     magic "SCWP"
    4       1     version (1)
    5       1     msg_type
    6       1     ndim (0..8)
    7       4*n   dims, unsigned 32-bit each
    7+4n    4     scale, IEEE 754 binary32
    11+4n   4     zero_point, signed 32-bit
    15+4n   8     payload_len, unsigned 64-bit
    23+4n   ...   payload

Tensor payloads keep the codec's element order: row-major, 16/32-bit
elements little-endian. The header is at most 55 bytes (ndim <= 8), inside
the fixed 64-byte budget. decode_message is total: any byte string either
yields a valid message or raises ProtocolError.

recv_frame reads one frame off a stream into one fresh bytearray, asking
for at most 1 MiB per recv and holding at most 1 MiB past the bytes that
arrived. It checks magic, version and ndim once the 7-byte prefix is in.
Before any payload it checks the whole header with the record's own rule,
so it refuses every header that WireMessage would refuse, with the same
message, and then payload_len against MAX_PAYLOAD_BYTES. decode_message
copies no payload: a decoded payload is a read-only memoryview of the
frame. check_payload_fits refuses, before anything is built or sent, a rank
of more than MAX_NDIM or a tensor over that cap.

WireMessage is the one record of a tensor on the wire, as the codec's
quantizers return it. It owns every header rule: a known type, at most
MAX_NDIM dims in [1, 2^32), a scale finite as binary32 (and rounded to it),
an int32 zero point, a tensor payload of dims x width, no dims on any other
type and an empty EMPTY_RESULT. ELEMENT_BITS is each tensor type's element
width.

tensor_digest (SHA-256 of the float32 values) is what the tail replies
with and what the head checks; it and tensor_to_message take a tensor
(``splitwire.tensor``). wire_header_bytes and data_size count a quantized
tensor's bytes as framed here.
"""

from __future__ import annotations

import hashlib
import math
import socket
import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from ..errors import ArgumentError, ProtocolError, RangeError, TransportError
from ..tensor import check_tensor

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_NDIM",
    "MAX_PAYLOAD_BYTES",
    "MsgType",
    "ELEMENT_BITS",
    "check_payload_fits",
    "WireMessage",
    "SizeReport",
    "wire_header_bytes",
    "data_size",
    "encode_message",
    "decode_message",
    "recv_frame",
    "tensor_digest",
    "tensor_to_message",
    "detection_result_message",
    "empty_result_message",
    "save_message",
    "load_message",
]

MAGIC = b"SCWP"
VERSION = 1
MAX_NDIM = 8
# what recv_frame reads of one frame's payload: 60x the reference JPEG's
# 277,021 bytes and 23x a reference-shape (3x223x265) float32 tensor
MAX_PAYLOAD_BYTES = 1 << 24

_PREFIX = struct.Struct(">4sBBB")
_TRAILER = struct.Struct(">fiQ")
_SCALE = struct.Struct(">f")  # the trailer's binary32 scale, which a message rounds to
_RECV_CHUNK = 1 << 20
_ZEROS = memoryview(bytes(_RECV_CHUNK))  # recv_frame grows by it; its pages stay unwritten


def wire_header_bytes(ndim: int) -> int:
    """Header byte count of a frame carrying a rank-``ndim`` tensor;
    ArgumentError past MAX_NDIM, the most dims a header can carry."""
    if ndim > MAX_NDIM:
        raise ArgumentError(f"a frame carries at most {MAX_NDIM} dims, got {ndim}")
    return _PREFIX.size + 4 * ndim + _TRAILER.size


class MsgType(IntEnum):
    JPEG_IMAGE = 0
    QTENSOR8 = 1
    QTENSOR16 = 2
    FTENSOR32 = 3
    DETECTION_RESULT = 4
    EMPTY_RESULT = 5


# element width in bits of each tensor type; every other type is dimless.
# Only width 8 is affine: the other tensor types carry scale 1 and zero point 0
ELEMENT_BITS = {MsgType.QTENSOR8: 8, MsgType.QTENSOR16: 16, MsgType.FTENSOR32: 32}


def _tensor_payload_bytes(width: int, dims) -> int:
    """The payload length of a tensor of ``dims`` at ``width`` bits per element."""
    return math.prod(dims) * (width // 8)


def check_payload_fits(dims, width: int) -> None:
    """ArgumentError unless a header can carry ``dims`` (wire_header_bytes)
    and a tensor of them at ``width`` bits per element has a payload of at
    most MAX_PAYLOAD_BYTES, the most a receiver reads."""
    wire_header_bytes(len(dims))
    size = _tensor_payload_bytes(width, dims)
    if size > MAX_PAYLOAD_BYTES:
        raise ArgumentError(
            f"a {'x'.join(map(str, dims))} tensor at width {width} is a {size}-byte "
            f"payload, over the {MAX_PAYLOAD_BYTES}-byte cap (wire.MAX_PAYLOAD_BYTES)"
        )


def _check_header(msg_type, dims, scale, zero_point, payload_len) -> tuple[MsgType, float]:
    """The one statement of what a frame header may hold: ProtocolError unless
    it may, else its MsgType and its scale rounded to binary32."""
    try:
        mt = MsgType(msg_type)
    except ValueError:
        raise ProtocolError(f"unknown msg_type {msg_type}") from None
    if len(dims) > MAX_NDIM:
        raise ProtocolError(f"ndim {len(dims)} exceeds maximum {MAX_NDIM}")
    if any(d < 1 or d > 0xFFFFFFFF for d in dims):
        raise ProtocolError(f"dims must be in [1, 2^32), got {dims}")
    try:
        scale = _SCALE.unpack(_SCALE.pack(scale))[0]
    except OverflowError:  # finite, but it rounds past binary32
        scale = math.inf
    if not math.isfinite(scale):
        raise ProtocolError("scale must be finite (as a binary32 value)")
    if not -(2 ** 31) <= zero_point < 2 ** 31:
        raise ProtocolError("zero_point outside signed 32-bit range")
    width = ELEMENT_BITS.get(mt)
    if width:
        if not dims:
            raise ProtocolError(f"{mt.name} needs at least one dim")
        expected = _tensor_payload_bytes(width, dims)
        if payload_len != expected:
            raise ProtocolError(f"payload_len {payload_len} does not fit {mt.name} "
                                f"dims {dims}: that payload is {expected} bytes")
    elif dims:
        raise ProtocolError(f"{mt.name} must not carry dims")
    elif mt is MsgType.EMPTY_RESULT and payload_len:
        raise ProtocolError("EMPTY_RESULT must have no payload")
    return mt, scale


@dataclass(frozen=True)
class WireMessage:
    """One frame's message. Its payload is bytes as constructed, a read-only
    memoryview from decode_message; it hashes without it, as a view may not."""

    msg_type: MsgType
    dims: tuple[int, ...] = ()
    scale: float = 0.0
    zero_point: int = 0
    payload: bytes | memoryview = field(default=b"", hash=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        mt, scale = _check_header(self.msg_type, dims, self.scale, self.zero_point,
                                  len(self.payload))
        object.__setattr__(self, "msg_type", mt)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "scale", scale)

    @property
    def header_bytes(self) -> int:
        return wire_header_bytes(len(self.dims))


@dataclass(frozen=True)
class SizeReport:
    """Byte accounting of one quantized tensor's frame."""

    payload_bytes: int
    header_bytes: int
    total_bytes: int
    ratio_vs_reference: float


def data_size(m: WireMessage, reference_bytes: int | None = None) -> SizeReport:
    """Byte totals including the frame header; ratio is vs ``reference_bytes``
    when given (1.0 otherwise)."""
    payload = len(m.payload)
    header = m.header_bytes
    total = payload + header
    if reference_bytes is None:
        ratio = 1.0
    else:
        if reference_bytes <= 0:
            raise RangeError(f"reference_bytes must be > 0, got {reference_bytes}")
        ratio = total / reference_bytes
    return SizeReport(payload, header, total, ratio)


def encode_message(m: WireMessage) -> bytes:
    parts = [_PREFIX.pack(MAGIC, VERSION, int(m.msg_type), len(m.dims))]
    if m.dims:
        parts.append(struct.pack(f">{len(m.dims)}I", *m.dims))
    parts.append(_TRAILER.pack(m.scale, m.zero_point, len(m.payload)))
    parts.append(m.payload)
    return b"".join(parts)


def _check_prefix(data: bytes) -> tuple[int, int]:
    """msg_type and ndim of a frame's first 7 bytes, or ProtocolError."""
    magic, version, msg_type, ndim = _PREFIX.unpack_from(data, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if ndim > MAX_NDIM:
        raise ProtocolError(f"ndim {ndim} exceeds maximum {MAX_NDIM}")
    return msg_type, ndim


def _parse_header(data) -> tuple[int, tuple[int, ...], float, int, int, int]:
    """msg_type, dims, scale, zero_point, payload_len and header length of the header
    ``data`` starts with, as laid out; ProtocolError if it is cut short. Its
    fields are unchecked past the prefix: _check_header judges them."""
    if len(data) < _PREFIX.size:
        raise ProtocolError(f"truncated frame: {len(data)} bytes")
    msg_type, ndim = _check_prefix(data)
    end = wire_header_bytes(ndim)
    if len(data) < end:
        raise ProtocolError("truncated header")
    dims = struct.unpack_from(f">{ndim}I", data, _PREFIX.size) if ndim else ()
    scale, zero_point, payload_len = _TRAILER.unpack_from(data, end - _TRAILER.size)
    return msg_type, dims, scale, zero_point, payload_len, end


def decode_message(data) -> WireMessage:
    """Parse one complete frame; trailing bytes are a protocol violation. The
    payload is a read-only memoryview of ``data``: do not change it meanwhile."""
    *fields, payload_len, end = _parse_header(data)
    if len(data) - end != payload_len:
        raise ProtocolError(f"payload_len {payload_len} does not match "
                            f"{len(data) - end} remaining bytes")
    return WireMessage(*fields, memoryview(data).toreadonly()[end:])


def _recv_into(sock: socket.socket, frame: bytearray, n: int) -> None:
    """Read off ``sock`` until ``frame`` holds ``n`` bytes. It grows a chunk at
    a time once the last is full, with no view of it left to block the resize."""
    got = len(frame)
    while got < n:
        if got == len(frame):
            frame += _ZEROS[:n - got]  # at most _RECV_CHUNK bytes
        k = sock.recv_into(memoryview(frame)[got:])
        if not k:
            raise TransportError("connection closed mid-frame")
        got += k


def recv_frame(sock: socket.socket) -> bytearray | None:
    """One frame read off a stream, in a fresh bytearray; None at end-of-stream.

    A header that WireMessage would refuse, or one whose payload_len exceeds
    MAX_PAYLOAD_BYTES, is a ProtocolError before any payload byte is read. A
    socket timeout propagates as ``socket.timeout``, also before the first
    byte, so a slow peer is not mistaken for a closed one.
    """
    first = sock.recv(_PREFIX.size)
    if not first:
        return None
    frame = bytearray(first)
    _recv_into(sock, frame, _PREFIX.size)
    _recv_into(sock, frame, wire_header_bytes(_check_prefix(frame)[1]))
    msg_type, dims, scale, zero_point, payload_len, end = _parse_header(frame)
    _check_header(msg_type, dims, scale, zero_point, payload_len)
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload_len {payload_len} exceeds {MAX_PAYLOAD_BYTES}")
    _recv_into(sock, frame, end + payload_len)
    return frame


def tensor_digest(t: np.ndarray) -> bytes:
    """SHA-256 over a tensor's row-major little-endian float32 bytes."""
    return hashlib.sha256(np.ascontiguousarray(check_tensor(t), "<f4")).digest()


def tensor_to_message(t: np.ndarray) -> WireMessage:
    return WireMessage(MsgType.FTENSOR32, check_tensor(t).shape, 1.0, 0,
                       t.astype("<f4", copy=False).tobytes())


def detection_result_message(digest: bytes) -> WireMessage:
    return WireMessage(MsgType.DETECTION_RESULT, payload=bytes(digest))


def empty_result_message() -> WireMessage:
    return WireMessage(MsgType.EMPTY_RESULT)


def save_message(path: str, m: WireMessage) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_message(m))


def load_message(path: str) -> WireMessage:
    with open(path, "rb") as fh:
        return decode_message(fh.read())
