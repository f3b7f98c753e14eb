"""Tail-side server: decode frames, run the profiled tail stub, reply.

The tail computation is a stub that charges virtual time, which is all the
delay model needs: t_tail per tensor frame and, for a JPEG frame, which the
full model handles, t_edge_full. Each tensor frame is dequantized and
answered with a DETECTION_RESULT whose payload is the SHA-256 digest of the
dequantized tensor, so clients can verify bit-exact transport. A malformed
frame closes only that connection, and a failed accept or a handler thread
that cannot start costs at most one connection; the server keeps serving
until stop().
"""

from __future__ import annotations

import hashlib
import logging
import math
import socket
import threading
from dataclasses import dataclass, field

from ..codec import dequantize
from ..errors import ArgumentError, CodecError, ProtocolError, TransportError
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

__all__ = ["ConnectionStats", "PipelineServer", "serve"]

log = logging.getLogger(__name__)


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
    host: str = "127.0.0.1"
    port: int = 0
    prof: ExecutionProfile | None = None
    idle_timeout_s: float | None = None
    stats: list[ConnectionStats] = field(default_factory=list)

    def __post_init__(self):
        # checked here: a handler thread would die on a bad timeout before it
        # could close its connection
        t = self.idle_timeout_s
        if t is not None and not (math.isfinite(t) and t > 0):
            raise ArgumentError(f"idle_timeout_s must be None or finite and > 0, got {t}")
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._live: set[socket.socket] = set()
        # a handler leaves _live before it closes its socket and ends, so
        # stop() joins every handler that may still run, not only the live ones
        self._handlers: list[threading.Thread] = []

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise TransportError("server not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "PipelineServer":
        listener = None
        try:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(16)
        except OSError as exc:
            if listener is not None:
                listener.close()
            raise TransportError(f"cannot bind {self.host}:{self.port}: {exc}") from exc
        listener.settimeout(0.2)
        self._listener = listener
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every live connection and join its handler."""
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        with self._lock:
            for conn in self._live:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=5.0)

    def __enter__(self) -> "PipelineServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        # only stop() ends the loop: an accept error such as EMFILE, or a
        # handler thread that cannot start, costs at most one connection
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError as exc:
                log.warning("accept failed, retrying: %s", exc)
                self._stop.wait(0.2)
                continue
            handler = threading.Thread(target=self._handle, args=(conn, peer),
                                       daemon=True)
            with self._lock:
                self._live.add(conn)
                self._handlers = [h for h in self._handlers if h.is_alive()]
                self._handlers.append(handler)
            try:
                handler.start()
            except RuntimeError as exc:
                log.warning("closing %s, no handler thread: %s", peer, exc)
                with self._lock:
                    self._live.remove(conn)
                    self._handlers.remove(handler)
                    self.stats.append(ConnectionStats(
                        peer, closed_reason=f"no handler thread: {exc}"))
                conn.close()

    def _handle(self, conn: socket.socket, peer) -> None:
        stats = ConnectionStats(peer)
        with self._lock:
            self.stats.append(stats)
        if self.idle_timeout_s is not None:
            conn.settimeout(self.idle_timeout_s)
        try:
            while True:
                # stop() may land between a reply and the next read
                if self._stop.is_set():
                    stats.closed_reason = "stopped"
                    break
                msg = read_frame(conn)
                if msg is None:
                    stats.closed_reason = "eof_or_idle"
                    break
                stats.frames += 1
                stats.bytes_received += msg.header_bytes + len(msg.payload)
                reply = self._respond(msg, stats)
                conn.sendall(encode_message(reply))
        except socket.timeout:
            stats.closed_reason = "eof_or_idle"
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
        prof = self.prof
        if msg.msg_type is MsgType.JPEG_IMAGE:
            # full-model path, charged as PO's server time: acknowledge with
            # a digest of the opaque bytes
            stats.tail_seconds += 0.0 if prof is None else prof.t_edge_full
            return detection_result_message(hashlib.sha256(msg.payload).digest())
        if msg.msg_type in (MsgType.DETECTION_RESULT, MsgType.EMPTY_RESULT):
            return empty_result_message()
        tensor = dequantize(msg)
        stats.tail_seconds += 0.0 if prof is None else prof.t_tail
        return detection_result_message(tensor_digest(tensor))


def serve(host: str, port: int, prof: ExecutionProfile | None = None,
          idle_timeout_s: float | None = None) -> None:
    """Blocking server loop (Ctrl-C to stop); used by the CLI.

    Prints ``serving on HOST:PORT`` with the bound address, so a caller that
    asked for port 0 learns the port the system chose.
    """
    server = PipelineServer(host, port, prof, idle_timeout_s=idle_timeout_s).start()
    print("serving on %s:%d" % server.address, flush=True)
    try:
        while True:
            server._accept_thread.join(timeout=1.0)
            if not server._accept_thread.is_alive():
                break
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
