"""Stateful test of the tail server against peers that misbehave.

Up to four clients interleave valid, malformed, truncated, dribbled and
stalled frames against one server with a short idle timeout. After every step
a fresh client must be answered; at the end each connection's stats must
match what its client sent, and stop() must give back every thread and file
descriptor.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from splitwire.codec import dequantize, quantize8
from splitwire.config import load_reference_config
from splitwire.pipeline.server import PipelineServer
from splitwire.pipeline.session import make_stream, read_frame
from splitwire.pipeline.wire import MsgType, WireMessage, encode_message, tensor_digest

IDLE_S = 0.2
# a client silent for longer may be timed out by the server at any moment
# from here on, so it counts as stalled; under IDLE_S, the server's wait
# for its next byte began after the client last sent, and cannot have ended
FRESH_S = 0.1
MAX_CLIENTS = 4
PROF = load_reference_config().profile

_Q = quantize8(make_stream(1, [3, 4, 4], 0.0, seed=50)[0][0])
FRAME = encode_message(_Q)
DIGEST = tensor_digest(dequantize(_Q))
# (bytes, frames the server counts): a bad prefix is no frame; a negative zero
# point is framed correctly, so it is read as a frame, then fails the codec
MALFORMED = [
    (b"GARBAGE-NOT-A-FRAME", 0),
    (encode_message(WireMessage(MsgType.QTENSOR8, (4,), 0.5, -5, b"\x01\x02\x03\x04")), 1),
]


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@dataclass
class Client:
    sock: socket.socket
    peer: tuple
    last_sent: float
    frames: int = 0
    protocol_errors: int = 0
    closed_reason: str = ""  # the prefix the server's closed_reason must have


class ServerUnderPeers(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.threads = set(threading.enumerate())
        self.fds = _fd_count()
        self.srv = PipelineServer(prof=PROF, idle_timeout_s=IDLE_S).start()
        self.active: list[Client] = []   # served, and silent for under FRESH_S
        self.stalled: list[Client] = []  # left for the idle timeout to close
        self.ended: list[Client] = []    # closed by the client or for an error

    def _connect(self) -> Client:
        sock = socket.create_connection(self.srv.address, timeout=2.0)
        return Client(sock, sock.getsockname(), time.monotonic())

    def _closed(self, client: Client) -> bool:
        return any(s.peer == client.peer and s.closed_reason for s in list(self.srv.stats))

    def _pick(self, i: int) -> Client | None:
        now = time.monotonic()
        for c in [c for c in self.active if now - c.last_sent > FRESH_S]:
            c.closed_reason = "idle_timeout"
            self.active.remove(c)
            self.stalled.append(c)
        return self.active[i % len(self.active)] if self.active else None

    def _end(self, client: Client, reason: str) -> None:
        client.closed_reason = reason
        self.active.remove(client)
        self.ended.append(client)

    @precondition(lambda self: len(self.active) < MAX_CLIENTS)
    @rule()
    def connect(self):
        # a stalled client holds its handler until the server times it out
        deadline = time.monotonic() + 5.0
        while (len(self.active) + sum(not self._closed(c) for c in self.stalled) >= MAX_CLIENTS
               and time.monotonic() < deadline):
            time.sleep(0.01)
        self.active.append(self._connect())

    @precondition(lambda self: self.active)
    @rule(i=st.integers(0, MAX_CLIENTS - 1), chunks=st.integers(1, 4))
    def send_valid(self, i, chunks):
        # more than one chunk dribbles the frame in with short pauses
        c = self._pick(i)
        if c is None:
            return
        step = -(-len(FRAME) // chunks)
        for start in range(0, len(FRAME), step):
            if start:
                time.sleep(0.005)
            c.last_sent = time.monotonic()
            c.sock.sendall(FRAME[start:start + step])
        reply = read_frame(c.sock)
        assert reply.msg_type is MsgType.DETECTION_RESULT
        assert reply.payload == DIGEST
        c.frames += 1

    @precondition(lambda self: self.active)
    @rule(i=st.integers(0, MAX_CLIENTS - 1), bad=st.sampled_from(MALFORMED))
    def send_malformed(self, i, bad):
        c = self._pick(i)
        if c is None:
            return
        frame, counted = bad
        c.sock.sendall(frame)
        try:
            assert c.sock.recv(1) == b""  # closed on us
        except ConnectionResetError:
            pass
        c.frames += counted
        c.protocol_errors += 1
        self._end(c, "protocol_error")
        c.sock.close()

    @precondition(lambda self: self.active)
    @rule(i=st.integers(0, MAX_CLIENTS - 1), cut=st.integers(1, len(FRAME) - 1))
    def send_truncated(self, i, cut):
        c = self._pick(i)
        if c is None:
            return
        c.sock.sendall(FRAME[:cut])
        self._end(c, "transport")
        c.sock.close()

    @precondition(lambda self: self.active)
    @rule(i=st.integers(0, MAX_CLIENTS - 1), cut=st.integers(0, len(FRAME) - 1))
    def stall(self, i, cut):
        # a stalled client may stop mid-frame; the idle timeout ends it all the same
        c = self._pick(i)
        if c is None:
            return
        c.sock.sendall(FRAME[:cut])
        c.closed_reason = "idle_timeout"
        self.active.remove(c)
        self.stalled.append(c)

    @precondition(lambda self: self.active)
    @rule(i=st.integers(0, MAX_CLIENTS - 1))
    def close(self, i):
        c = self._pick(i)
        if c is None:
            return
        self._end(c, "eof")
        c.sock.close()

    @invariant()
    def a_fresh_client_is_answered(self):
        c = self._connect()
        with c.sock:
            c.sock.sendall(FRAME)
            assert read_frame(c.sock).payload == DIGEST
        c.frames = 1
        c.closed_reason = "eof"
        self.ended.append(c)

    def teardown(self):
        try:
            self._pick(0)  # a client silent for over FRESH_S may be timed out
            for c in list(self.active):
                self._end(c, "eof")
                c.sock.close()
            clients = self.ended + self.stalled
            deadline = time.monotonic() + 5.0
            while (not all(self._closed(c) for c in clients)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            by_peer = {s.peer: s for s in self.srv.stats}
            assert len(by_peer) == len(self.srv.stats) == len(clients)
            for c in clients:
                s = by_peer[c.peer]
                assert (s.frames, s.protocol_errors) == (c.frames, c.protocol_errors)
                assert s.closed_reason.startswith(c.closed_reason), (s, c)
        finally:
            for c in self.stalled:
                c.sock.close()
            self.srv.stop()
        assert [t for t in threading.enumerate() if t not in self.threads] == []
        assert _fd_count() == self.fds


ServerUnderPeers.TestCase.settings = settings(max_examples=12, stateful_step_count=10,
                                              deadline=None)
test_server_under_misbehaving_peers = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")(
    ServerUnderPeers.TestCase)
