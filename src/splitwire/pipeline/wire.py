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

recv_frame reads one frame off a stream. It checks magic, version and ndim
as soon as the 7-byte prefix is in, with the same check decode_message
uses, and asks the socket for at most 1 MiB per recv, so the memory a
frame takes grows only with the bytes that really arrived.

tensor_digest (SHA-256 of the float32 values) is what the tail replies
with and what the head checks.
"""

from __future__ import annotations

import hashlib
import socket
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..codec import QuantizedTensor, dequantize, passthrough32, wire_header_bytes
from ..errors import CodecError, ProtocolError, TransportError
from ..tensor import Shape, Tensor

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_NDIM",
    "MsgType",
    "WireMessage",
    "encode_message",
    "decode_message",
    "recv_frame",
    "tensor_digest",
    "tensor_to_message",
    "message_to_tensor",
    "quantized_to_message",
    "message_to_quantized",
    "detection_result_message",
    "empty_result_message",
    "save_message",
    "load_message",
]

MAGIC = b"SCWP"
VERSION = 1
MAX_NDIM = 8

_PREFIX = struct.Struct(">4sBBB")
_TRAILER = struct.Struct(">fiQ")
_RECV_CHUNK = 1 << 20


class MsgType(IntEnum):
    JPEG_IMAGE = 0
    QTENSOR8 = 1
    QTENSOR16 = 2
    FTENSOR32 = 3
    DETECTION_RESULT = 4
    EMPTY_RESULT = 5


# element width in bits of each tensor type; every other type is dimless
_WIDTH = {MsgType.QTENSOR8: 8, MsgType.QTENSOR16: 16, MsgType.FTENSOR32: 32}
_TYPE = {w: mt for mt, w in _WIDTH.items()}


@dataclass(frozen=True)
class WireMessage:
    msg_type: MsgType
    dims: tuple[int, ...] = ()
    scale: float = 0.0
    zero_point: int = 0
    payload: bytes = b""

    def __post_init__(self):
        try:
            mt = MsgType(self.msg_type)
        except ValueError:
            raise ProtocolError(f"unknown msg_type {self.msg_type}") from None
        object.__setattr__(self, "msg_type", mt)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) > MAX_NDIM:
            raise ProtocolError(f"ndim {len(dims)} exceeds maximum {MAX_NDIM}")
        if any(d < 1 or d > 0xFFFFFFFF for d in dims):
            raise ProtocolError(f"dims must be in [1, 2^32), got {dims}")
        scale = float(np.float32(self.scale)) if np.isfinite(self.scale) else self.scale
        if not np.isfinite(scale):
            raise ProtocolError("scale must be finite (as a binary32 value)")
        object.__setattr__(self, "scale", scale)
        if not -(2 ** 31) <= self.zero_point < 2 ** 31:
            raise ProtocolError("zero_point outside signed 32-bit range")

        n = 1
        for d in dims:
            n *= d
        if mt in _WIDTH:
            if not dims:
                raise ProtocolError(f"{mt.name} needs at least one dim")
            expected = n * (_WIDTH[mt] // 8)
            if len(self.payload) != expected:
                raise ProtocolError(
                    f"{mt.name} payload is {len(self.payload)} bytes, "
                    f"expected {expected} for dims {dims}"
                )
        elif dims:
            raise ProtocolError(f"{mt.name} must not carry dims")
        elif mt is MsgType.EMPTY_RESULT and self.payload:
            raise ProtocolError("EMPTY_RESULT must have no payload")

    @property
    def header_bytes(self) -> int:
        return wire_header_bytes(len(self.dims))


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


def decode_message(data: bytes) -> WireMessage:
    """Parse one complete frame; trailing bytes are a protocol violation."""
    if len(data) < _PREFIX.size:
        raise ProtocolError(f"truncated frame: {len(data)} bytes")
    msg_type, ndim = _check_prefix(data)
    off = _PREFIX.size
    need = 4 * ndim + _TRAILER.size
    if len(data) < off + need:
        raise ProtocolError("truncated header")
    dims = struct.unpack_from(f">{ndim}I", data, off) if ndim else ()
    off += 4 * ndim
    scale, zero_point, payload_len = _TRAILER.unpack_from(data, off)
    off += _TRAILER.size
    if len(data) - off != payload_len:
        raise ProtocolError(
            f"payload_len {payload_len} does not match {len(data) - off} "
            "remaining bytes"
        )
    return WireMessage(msg_type, dims, scale, zero_point, data[off:])


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, _RECV_CHUNK))
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes | None:
    """The bytes of one frame read off a stream; None on a clean end-of-stream.

    A socket timeout propagates as ``socket.timeout``, also before the first
    byte, so a slow peer is not mistaken for a closed one.
    """
    first = sock.recv(_PREFIX.size)
    if not first:
        return None
    prefix = first + _recv_exact(sock, _PREFIX.size - len(first))
    _, ndim = _check_prefix(prefix)
    rest = _recv_exact(sock, 4 * ndim + _TRAILER.size)
    payload_len = _TRAILER.unpack_from(rest, 4 * ndim)[2]
    if payload_len > (1 << 32):
        raise ProtocolError(f"implausible payload_len {payload_len}")
    return prefix + rest + _recv_exact(sock, payload_len)


def tensor_digest(t: Tensor) -> bytes:
    """SHA-256 over the row-major little-endian float32 bytes."""
    return hashlib.sha256(t.data.astype("<f4", copy=False)).digest()


# --- tensor conversions ------------------------------------------------------

def tensor_to_message(t: Tensor) -> WireMessage:
    return quantized_to_message(passthrough32(t))


def message_to_tensor(m: WireMessage) -> Tensor:
    if m.msg_type is not MsgType.FTENSOR32:
        raise CodecError(f"expected FTENSOR32, got {m.msg_type.name}")
    return dequantize(message_to_quantized(m))


def quantized_to_message(q: QuantizedTensor) -> WireMessage:
    affine = q.width == 8
    return WireMessage(_TYPE[q.width], q.shape.dims, q.scale if affine else 1.0,
                       q.zero_point if affine else 0, q.payload)


def message_to_quantized(m: WireMessage) -> QuantizedTensor:
    if m.msg_type not in _WIDTH:
        raise CodecError(f"{m.msg_type.name} does not carry a tensor")
    width = _WIDTH[m.msg_type]
    return QuantizedTensor(Shape(m.dims), width, m.scale if width == 8 else 1.0,
                           m.zero_point if width == 8 else 0, m.payload)


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
