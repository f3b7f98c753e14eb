"""Tail-side server process for the loopback workloads.

Runs one ``splitwire.pipeline.PipelineServer`` (virtual tail, reference
profile) on an ephemeral loopback port and takes one-line commands on
stdin, answering each with one JSON line on stdout:

    (start)   -> {"port": N}
    trace     -> wrap the server-side public functions in spans
    mark      -> counters, CPU seconds and spans since the previous mark
    stop      -> the same as mark plus peak RSS, then the process exits

End of stdin acts as ``stop``, so the server never outlives the benchmark.

    python3 perfbench/tail_server.py
"""

from __future__ import annotations

import itertools
import json
import resource
import socket
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splitwire import load_reference_config  # noqa: E402
from splitwire.pipeline import PipelineServer  # noqa: E402
from splitwire.pipeline import server as server_mod  # noqa: E402
from splitwire.pipeline import session as session_mod  # noqa: E402

from tracing import Tracer  # noqa: E402


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _totals(srv: PipelineServer) -> dict:
    stats = list(srv.stats)
    return {"frames": sum(s.frames for s in stats),
            "bytes_received": sum(s.bytes_received for s in stats),
            "protocol_errors": sum(s.protocol_errors for s in stats),
            "cpu_s": _cpu_seconds()}


class _ServerTrace:
    """Spans around the server's frame path, numbered by frame.

    ``server.read_frame`` starts at the first byte of a frame, not when the
    handler began to wait for it, so the span holds only the reading; the
    wait is kept as ``wait_ns``. A read that ends the connection is
    recorded as ``server.read_eof``.
    """

    def __init__(self):
        self.tracer = Tracer("server")
        self._frames = itertools.count()
        self._lock = threading.Lock()
        self._first_byte = threading.local()

    def reset(self) -> None:
        self.tracer.clear()
        with self._lock:
            self._frames = itertools.count()

    def install(self) -> None:
        tr = self.tracer
        tr.patch(session_mod, "decode_message", "server.decode")
        tr.patch(server_mod, "dequantize", "server.dequantize")
        tr.patch(server_mod, "tensor_digest", "server.digest")
        tr.patch(server_mod, "encode_message", "server.encode")
        tr.patch(socket.socket, "sendall", "server.reply")
        self._patch_recv()
        self._patch_read_frame()

    def _patch_recv(self) -> None:
        first = self._first_byte
        original = socket.socket.recv

        def recv(sock, *args):
            data = original(sock, *args)
            if getattr(first, "ns", 0) is None:
                first.ns = time.perf_counter_ns()
            return data

        self.tracer.replace(socket.socket, "recv", recv)

    def _patch_read_frame(self) -> None:
        tr, first = self.tracer, self._first_byte
        original = server_mod.read_frame

        def read_frame(sock):
            sid, parent = tr.begin()
            first.ns = None
            tr.image = -1
            start = time.perf_counter_ns()
            try:
                msg = original(sock)
            finally:
                end = time.perf_counter_ns()
                tr.end()
            if msg is None:
                tr.record("server.read_eof", start, end, parent, sid=sid)
                return msg
            with self._lock:
                tr.image = next(self._frames)
            begin = first.ns or start
            tr.record("server.read_frame", begin, end, parent, sid=sid, wait_ns=begin - start)
            for span in reversed(tr.spans):
                if span["parent"] == sid:
                    span["image"] = tr.image
                    break
            return msg

        tr.replace(server_mod, "read_frame", read_frame)


def main() -> int:
    cfg = load_reference_config()
    srv = PipelineServer(prof=cfg.profile).start()
    trace: _ServerTrace | None = None

    def reply(doc: dict) -> None:
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    def since(base: dict) -> tuple[dict, dict]:
        now = _totals(srv)
        doc = {k: now[k] - base[k] for k in now}
        doc["spans"] = trace.tracer.spans if trace is not None else []
        return doc, now

    base = _totals(srv)
    reply({"port": srv.address[1]})
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "trace":
                trace = _ServerTrace()
                trace.install()
                reply({"ok": True})
            elif cmd == "mark":
                doc, base = since(base)
                if trace is not None:
                    trace.reset()
                reply(doc)
            elif cmd == "stop":
                break
            else:
                reply({"error": f"unknown command {cmd!r}"})
        doc, _ = since(base)
    finally:
        srv.stop()
    doc["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reply(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
