"""Client-side split pipeline: filter, quantize, frame, send, log.

An image is a (tensor, is_empty) pair, the tensor a read-only float32
ndarray of the bottleneck's shape (``splitwire.tensor``). Two transports:

* ``simulated`` - nothing is quantized or framed. A kept image is charged
  the closed-form frame size from ``wire``: wire_header_bytes(rank) plus
  numel * width // 8 payload bytes, which is len() of the frame socket mode
  would send at any width. Its uplink seconds come from
  latency.transfer_time. A run is a deterministic function of (images,
  profile, channel, filter, seed), and reads only each image's shape and
  label: the CLI's simulated client builds no tensors, passing one shared
  tensor with the labels of ``stream_labels``, so its memory does not grow
  with the image count times the tensor size.
* ``socket``    - frames go over a real TCP stream to a PipelineServer,
  paced by a token bucket at the channel rate; uplink seconds are measured
  wall clock, while head and tail compute stay virtual (from the profile).
  A tensor whose payload would exceed ``wire.MAX_PAYLOAD_BYTES`` is an
  ArgumentError before the connection opens. Each image is quantized once.
  The client computes the digest of the dequantized tensor while its frame
  is still on the link, in the token bucket's first pacing wait (after the
  last byte when the frame fits in one chunk), and checks it against the
  digest in the tail's reply.

Per-image head time is charged as t_head + t_filter_extra (the filter branch
runs alongside the head on every image). ``FilterModel.drops`` decides which
images are dropped; a dropped image sends nothing and pays no tail time.
"""

from __future__ import annotations

import csv
import socket
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..codec import dequantize, quantize8, quantize16
from ..errors import ArgumentError, ProtocolError, TransportError
from ..latency import ChannelModel, ExecutionProfile, transfer_time
from ..tensor import Shape, random_fill
from .filtergate import FilterModel, draw_labels
from .wire import (MsgType, WireMessage, check_payload_fits, decode_message, encode_message,
                   recv_frame, tensor_digest, tensor_to_message, wire_header_bytes)

__all__ = [
    "ImageRecord",
    "SessionLog",
    "TokenBucket",
    "make_stream",
    "run_session",
    "stream_labels",
]


@dataclass(frozen=True)
class ImageRecord:
    image_id: int
    filtered: bool
    bytes_sent: int
    t_head: float
    t_uplink: float
    t_tail: float

    @property
    def total(self) -> float:
        return self.t_head + self.t_uplink + self.t_tail


@dataclass
class SessionLog:
    records: list[ImageRecord]

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.records)

    @property
    def drop_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.filtered for r in self.records) / len(self.records)

    @property
    def mean_total(self) -> float:
        return float(np.mean([r.total for r in self.records]))

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["image_id", "filtered", "bytes_sent",
                             "t_head", "t_uplink", "t_tail", "total"])
            for r in self.records:
                writer.writerow([r.image_id, int(r.filtered), r.bytes_sent,
                                 repr(r.t_head), repr(r.t_uplink),
                                 repr(r.t_tail), repr(r.total)])


def stream_labels(n: int, p_empty: float, seed: int) -> np.ndarray:
    """The is_empty labels of ``make_stream(n, shape, p_empty, seed)``, for any
    shape, as a bool array; no tensor is built."""
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    # label stream is kept distinct from the session's score stream so the
    # same seed can drive both without coupling them
    rng = np.random.default_rng([0x57F3A, seed])
    return draw_labels(rng, n, p_empty)


def make_stream(n: int, shape, p_empty: float, seed: int) -> list[tuple[np.ndarray, bool]]:
    """Synthetic labeled image stream: n (bottleneck tensor, is_empty) pairs,
    each tensor filled uniformly from [-1, 1).

    A simulated session reads only each tensor's shape, so it needs none of
    these tensors: pair ``stream_labels`` with one shared tensor instead, and
    memory does not grow with n times the tensor size.
    """
    labels = stream_labels(n, p_empty, seed)
    if not isinstance(shape, Shape):
        shape = Shape(shape)
    return [(random_fill(shape, seed * 100003 + i, -1.0, 1.0), bool(empty))
            for i, empty in enumerate(labels)]


class TokenBucket:
    """Byte-rate pacing with 10 ms granularity for socket sends."""

    def __init__(self, rate_bps: float):
        self.rate_bytes = rate_bps / 8.0
        self.chunk = max(1, int(self.rate_bytes * 0.01))

    def send_all(self, sock: socket.socket, data: bytes,
                 work: Callable[[], object]) -> float:
        """Send ``data`` paced to the rate; the link seconds, start to last byte.

        ``work`` runs exactly once. It runs right after the first chunk, in
        place of the first pacing wait: every chunk stays due at ``start +
        sent / rate``, so that wait shrinks by the time the work took. When
        ``data`` fits in one chunk, it runs after the last byte instead, once
        the link seconds are taken.
        """
        start = time.monotonic()
        sent = 0
        view = memoryview(data)
        while sent < len(data):
            end = min(sent + self.chunk, len(data))
            sock.sendall(view[sent:end])
            sent = end
            if work is not None and sent < len(data):
                work()
                work = None
            due = start + sent / self.rate_bytes
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        link = time.monotonic() - start
        if work is not None:
            work()
        return link


def read_frame(sock: socket.socket) -> WireMessage | None:
    """Read one frame with wire.recv_frame and decode it; None at end-of-stream."""
    frame = recv_frame(sock)
    return None if frame is None else decode_message(frame)


def _quantize_for_width(t: np.ndarray, width: int) -> WireMessage:
    if width == 8:
        return quantize8(t)
    if width == 16:
        return quantize16(t)
    return tensor_to_message(t)


def run_session(images: list[tuple[np.ndarray, bool]], prof: ExecutionProfile,
                ch: ChannelModel, fm: FilterModel, mode: str = "simulated",
                seed: int = 0, width: int = 8,
                server_addr: tuple[str, int] | None = None,
                connect_timeout_s: float = 5.0) -> SessionLog:
    """Run the head side over a labeled image stream and log every image."""
    if mode not in ("simulated", "socket"):
        raise ArgumentError(f"mode must be 'simulated' or 'socket', got {mode!r}")
    if not images:
        raise ArgumentError("need at least one image")
    if width not in (8, 16, 32):
        raise ArgumentError(f"width must be 8, 16 or 32, got {width}")

    rng = np.random.default_rng([0x5C0FE5, seed])
    labels = np.array([empty for _, empty in images], dtype=bool)
    dropped = fm.drops(fm.sample_scores(labels, rng))

    head_s = prof.t_head + prof.t_filter_extra
    records: list[ImageRecord] = []

    sock = None
    bucket = None
    if mode == "socket":
        if server_addr is None:
            raise ArgumentError("socket mode needs server_addr")
        for img, _empty in images:
            check_payload_fits(img.shape, width)
        try:
            sock = socket.create_connection(server_addr, timeout=connect_timeout_s)
        except OSError as exc:
            raise TransportError(f"cannot reach server {server_addr}: {exc}") from exc
        bucket = TokenBucket(ch.rate_bps)

    try:
        for i, (img, _empty) in enumerate(images):
            if dropped[i]:
                records.append(ImageRecord(i, True, 0, head_s, 0.0, 0.0))
                continue

            if mode == "simulated":
                size = wire_header_bytes(img.ndim) + img.size * width // 8
                uplink = transfer_time(size, ch)
            else:
                q = _quantize_for_width(img, width)
                frame = encode_message(q)
                size = len(frame)
                uplink = _socket_round_trip(sock, bucket, frame, q, i)
            records.append(ImageRecord(i, False, size,
                                       head_s, uplink, prof.t_tail))
    finally:
        if sock is not None:
            sock.close()
    return SessionLog(records)


def _socket_round_trip(sock, bucket, frame: bytes, q: WireMessage,
                       index: int) -> float:
    expected = None

    def verify() -> None:
        nonlocal expected
        expected = tensor_digest(dequantize(q))

    try:
        uplink = bucket.send_all(sock, frame, verify)
    except OSError as exc:
        raise TransportError(f"image {index}: send failed: {exc}") from exc
    try:
        reply = read_frame(sock)
    except OSError as exc:
        raise TransportError(f"image {index}: no reply: {exc}") from exc
    if reply is None:
        raise TransportError(f"image {index}: server closed the connection")
    if reply.msg_type is not MsgType.DETECTION_RESULT:
        raise ProtocolError(f"image {index}: unexpected reply {reply.msg_type.name}")
    if reply.payload != expected:
        raise ProtocolError(f"image {index}: tensor digest mismatch")
    return uplink
