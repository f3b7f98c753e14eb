"""Tail-side server: decode frames, run the profiled tail stub, reply.

The tail computation is a stub: it either charges virtual time (default) or
really sleeps for t_tail per frame, which is all the delay model needs. Each
tensor frame is dequantized and answered with a DETECTION_RESULT whose
payload is the SHA-256 digest of the dequantized tensor, so clients can
verify bit-exact transport. A malformed frame closes only that connection;
the server keeps serving.
"""

from __future__ import annotations

import hashlib
import logging
import socket
import threading
import time
from dataclasses import dataclass, field

from ..codec import dequantize
from ..errors import CodecError, ProtocolError, TransportError
from ..latency import ExecutionProfile
from .session import read_frame
from .wire import (
    MsgType,
    WireMessage,
    detection_result_message,
    empty_result_message,
    encode_message,
    message_to_quantized,
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
    tail_mode: str = "virtual"  # "virtual" charges time, "sleep" really waits
    idle_timeout_s: float | None = None
    stats: list[ConnectionStats] = field(default_factory=list)

    def __post_init__(self):
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._live: dict[socket.socket, threading.Thread] = {}

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
            live = list(self._live.items())
            for conn, _ in live:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for _, handler in live:
            handler.join(timeout=5.0)

    def __enter__(self) -> "PipelineServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handler = threading.Thread(target=self._handle, args=(conn, peer),
                                       daemon=True)
            with self._lock:
                self._live[conn] = handler
            handler.start()

    def _handle(self, conn: socket.socket, peer) -> None:
        stats = ConnectionStats(peer)
        with self._lock:
            self.stats.append(stats)
        if self.idle_timeout_s is not None:
            conn.settimeout(self.idle_timeout_s)
        try:
            while not self._stop.is_set():
                msg = read_frame(conn)
                if msg is None:
                    stats.closed_reason = stats.closed_reason or "eof_or_idle"
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
                del self._live[conn]
            conn.close()

    def _respond(self, msg: WireMessage, stats: ConnectionStats) -> WireMessage:
        if msg.msg_type is MsgType.JPEG_IMAGE:
            # full-model path: acknowledge with a digest of the opaque bytes
            self._charge_tail(stats)
            return detection_result_message(hashlib.sha256(msg.payload).digest())
        if msg.msg_type in (MsgType.DETECTION_RESULT, MsgType.EMPTY_RESULT):
            return empty_result_message()
        tensor = dequantize(message_to_quantized(msg))
        self._charge_tail(stats)
        return detection_result_message(tensor_digest(tensor))

    def _charge_tail(self, stats: ConnectionStats) -> None:
        t_tail = self.prof.t_tail if self.prof is not None else 0.0
        stats.tail_seconds += t_tail
        if self.tail_mode == "sleep" and t_tail > 0:
            time.sleep(t_tail)


def serve(host: str, port: int, prof: ExecutionProfile | None = None,
          tail_mode: str = "virtual",
          idle_timeout_s: float | None = None) -> None:
    """Blocking server loop (Ctrl-C to stop); used by the CLI."""
    server = PipelineServer(host, port, prof, tail_mode, idle_timeout_s).start()
    log.info("serving on %s:%d", *server.address)
    try:
        while True:
            server._accept_thread.join(timeout=1.0)
            if not server._accept_thread.is_alive():
                break
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
