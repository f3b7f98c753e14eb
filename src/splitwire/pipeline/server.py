"""Tail-side server: decode frames, run the profiled tail stub, reply.

The tail computation is a stub that charges virtual time, which is all the
delay model needs: t_tail per tensor frame and, for a JPEG frame, which the
full model handles, t_edge_full. Each tensor frame is dequantized and
answered with a DETECTION_RESULT whose payload is the SHA-256 digest of the
dequantized tensor, so clients can verify bit-exact transport.

start() starts a fixed set of HANDLERS threads, each serving one connection at
a time, as leader and followers: one idle handler, the leader, blocks in
accept(), and every other idle handler waits on its own slot. The leader hands
each connection to the most recently idle follower and goes back to accept();
with no follower idle it serves the connection itself, and the next handler to
go idle leads. So connections that come one at a time all land on one thread
and its warm malloc arena. Peers beyond the handlers wait in the listen
backlog. A malformed frame closes only that connection and a failed accept
is retried; the server keeps serving until stop(), which wakes the leader at
once.

A server has one configuration: the profile is required, and the idle
timeout is always on. A connection that sends nothing for idle_timeout_s
(IDLE_TIMEOUT_S, 10 s, unless given another) is closed, so stalled peers
cannot hold every handler. Every setting is checked at construction, before
anything binds: a prof that is not an ExecutionProfile, an idle_timeout_s
that is not a finite number > 0 (None and True included), a host that is not
a str without NUL and a port that is not an int in 0..65535 each raise
ArgumentError. A port that start() cannot bind is a TransportError. The
CLI's serve command runs this class itself; there is no serve() function.

Each connection's closed_reason says how it ended: "eof" (the peer closed
between frames), "idle_timeout", "stopped", "protocol_error: ..." or
"transport: ...".
"""

from __future__ import annotations

import hashlib
import logging
import queue
import socket
import threading
from dataclasses import dataclass, field

from ..codec import dequantize
from ..errors import ArgumentError, CodecError, ProtocolError, TransportError, check_argument
from ..latency import ExecutionProfile
from .session import read_frame
from .wire import (
    MsgType,
    WireMessage,
    detection_result_message,
    empty_result_message,
    encode_message,
    tensor_digest,
)

__all__ = ["ConnectionStats", "PipelineServer"]

log = logging.getLogger(__name__)

HANDLERS = 8
IDLE_TIMEOUT_S = 10.0


@dataclass
class ConnectionStats:
    peer: tuple
    frames: int = 0
    bytes_received: int = 0
    tail_seconds: float = 0.0
    protocol_errors: int = 0
    closed_reason: str = ""


@dataclass
class PipelineServer:
    prof: ExecutionProfile
    host: str = "127.0.0.1"
    port: int = 0
    idle_timeout_s: float = IDLE_TIMEOUT_S
    stats: list[ConnectionStats] = field(default_factory=list, init=False)

    def __post_init__(self):
        # checked here: a handler thread would die on a bad profile or timeout
        # before it could close its connection, and bind() raises for a bad
        # host or port without closing the socket
        if not isinstance(self.prof, ExecutionProfile):
            raise ArgumentError(f"prof must be an ExecutionProfile, got {self.prof!r}")
        check_argument("idle_timeout_s", self.idle_timeout_s, above=0.0)
        if not isinstance(self.host, str) or "\0" in self.host:
            raise ArgumentError(f"host must be a str with no NUL, got {self.host!r}")
        port = self.port
        if isinstance(port, bool) or not isinstance(port, int) or not 0 <= port <= 65535:
            raise ArgumentError(f"port must be an int in 0..65535, got {port!r}")
        self._listener: socket.socket | None = None
        self._handlers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()  # guards _live, _idle, _leading and stats
        self._live: set[socket.socket] = set()
        # followers' slots, the most recently idle last
        self._idle: list[queue.SimpleQueue] = []
        self._leading = False

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise TransportError("server not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "PipelineServer":
        try:
            self._listener = socket.create_server((self.host, self.port), backlog=16)
        except OSError as exc:
            raise TransportError(f"cannot bind {self.host}:{self.port}: {exc}") from exc
        for _ in range(HANDLERS):
            handler = threading.Thread(target=self._handler_loop, daemon=True)
            try:
                handler.start()
            except RuntimeError as exc:
                self.stop()
                raise TransportError(f"cannot start handler threads: {exc}") from exc
            self._handlers.append(handler)
        return self

    def stop(self) -> None:
        """Stop accepting, end every live connection and join the handlers.

        The leader is woken from accept() by shutdown() of the listening
        socket, which makes a blocked accept() fail at once on Linux. BSD and
        macOS refuse that shutdown with ENOTCONN, so there the leader stays in
        accept() and stop() returns only after its 5 s join timeout.
        """
        with self._lock:
            # under the lock, so no handler becomes a follower after this
            self._stop.set()
            for slot in self._idle:
                slot.put(None)
            self._idle.clear()
            if self._listener is not None:
                try:
                    self._listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            for conn in self._live:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for handler in self._handlers:
            handler.join(timeout=5.0)
        # closed last, so no handler is in accept() on a closed socket
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __enter__(self) -> "PipelineServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _handler_loop(self) -> None:
        # only stop() ends the loop: _handle turns every error a frame can
        # cause into a closed_reason, because a handler that died would not
        # be replaced
        slot: queue.SimpleQueue = queue.SimpleQueue()
        while True:
            with self._lock:
                if self._stop.is_set():
                    return
                follow = self._leading
                if follow:
                    self._idle.append(slot)
                else:
                    self._leading = True
            work = slot.get() if follow else self._lead()
            if work is None:
                return
            self._handle(*work)

    def _lead(self) -> tuple[socket.socket, tuple] | None:
        """Accept and hand out connections; return one to serve, or None at stop()."""
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError as exc:
                if self._stop.is_set():
                    return None
                # such as EMFILE: retried, since the leader must not die
                log.warning("accept failed, retrying: %s", exc)
                self._stop.wait(0.2)
                continue
            with self._lock:
                self._live.add(conn)
                if not self._idle:
                    self._leading = False
                    return conn, peer
                self._idle.pop().put((conn, peer))

    def _handle(self, conn: socket.socket, peer) -> None:
        stats = ConnectionStats(peer)
        with self._lock:
            self.stats.append(stats)
        conn.settimeout(self.idle_timeout_s)
        try:
            while True:
                # stop() may land between a reply and the next read
                if self._stop.is_set():
                    stats.closed_reason = "stopped"
                    break
                msg = read_frame(conn)
                if msg is None:
                    stats.closed_reason = "eof"
                    break
                stats.frames += 1
                stats.bytes_received += msg.header_bytes + len(msg.payload)
                reply = self._respond(msg, stats)
                conn.sendall(encode_message(reply))
        except socket.timeout:
            stats.closed_reason = "idle_timeout"
        except (ProtocolError, CodecError) as exc:
            stats.protocol_errors += 1
            stats.closed_reason = f"protocol_error: {exc}"
            log.warning("closing %s after protocol error: %s", peer, exc)
        except OSError as exc:
            stats.closed_reason = f"transport: {exc}"
        finally:
            # under the lock, so stop() never shuts down a closed socket
            with self._lock:
                self._live.remove(conn)
            conn.close()

    def _respond(self, msg: WireMessage, stats: ConnectionStats) -> WireMessage:
        if msg.msg_type is MsgType.JPEG_IMAGE:
            # full-model path, charged as PO's server time: acknowledge with
            # a digest of the opaque bytes
            stats.tail_seconds += self.prof.t_edge_full
            return detection_result_message(hashlib.sha256(msg.payload).digest())
        if msg.msg_type in (MsgType.DETECTION_RESULT, MsgType.EMPTY_RESULT):
            return empty_result_message()
        tensor = dequantize(msg)
        stats.tail_seconds += self.prof.t_tail
        return detection_result_message(tensor_digest(tensor))

