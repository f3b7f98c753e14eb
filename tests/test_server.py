import errno
import gc
import socket
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from splitwire import cli
from splitwire.codec import dequantize, quantize8
from splitwire.errors import ArgumentError, TransportError
from splitwire.latency import ChannelModel, ExecutionProfile
from splitwire.pipeline.filtergate import FilterModel
from splitwire.pipeline.server import HANDLERS, PipelineServer
from splitwire.pipeline.session import make_stream, read_frame, run_session
from splitwire.pipeline.wire import (
    MsgType,
    WireMessage,
    empty_result_message,
    encode_message,
    tensor_digest,
)

PROF = ExecutionProfile(t_local=2.0, t_edge_full=0.05, t_head=0.08,
                        t_tail=0.04, t_filter_extra=0.004)
FAST = ChannelModel(500e6)
KEEP_ALL = FilterModel(threshold=0.1, p_empty=0.0, mu_nonempty=30.0,
                       sigma_nonempty=0.1)


@pytest.mark.parametrize("width", [8, 16, 32])
def test_loopback_session_round_trips_tensors(width):
    images = make_stream(20, [3, 16, 16], 0.0, seed=1)
    with PipelineServer(prof=PROF) as srv:
        log = run_session(images, PROF, FAST, KEEP_ALL, mode="socket",
                          seed=2, width=width, server_addr=srv.address)
    # run_session verifies the digest of every reply against the local
    # dequantized tensor, so completing is the bit-exactness proof
    assert len(log.records) == 20
    assert log.total_bytes == sum(r.bytes_sent for r in log.records)
    stats = srv.stats[0]
    assert stats.frames == 20
    assert stats.tail_seconds == pytest.approx(20 * PROF.t_tail)


def test_server_replies_with_digest_of_dequantized_tensor():
    t = make_stream(1, [3, 5, 5], 0.0, seed=3)[0][0]
    q = quantize8(t)
    with PipelineServer(prof=PROF) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(encode_message(q))
            reply = read_frame(sock)
    assert reply.msg_type is MsgType.DETECTION_RESULT
    assert reply.payload == tensor_digest(dequantize(q))


def test_malformed_frame_closes_connection_but_server_survives():
    with PipelineServer(prof=PROF) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as bad:
            bad.sendall(b"GARBAGE-NOT-A-FRAME")
            # closed on us: clean FIN or a reset, depending on unread bytes
            try:
                assert bad.recv(1) == b""
            except ConnectionResetError:
                pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if any(s.protocol_errors for s in srv.stats):
                break
            time.sleep(0.01)
        assert any(s.protocol_errors == 1 for s in srv.stats)

        # a fresh client still gets service
        images = make_stream(3, [3, 4, 4], 0.0, seed=4)
        log = run_session(images, PROF, FAST, KEEP_ALL, mode="socket",
                          seed=5, server_addr=srv.address)
        assert len(log.records) == 3


def test_two_concurrent_clients_complete_independently():
    images_a = make_stream(15, [3, 8, 8], 0.0, seed=6)
    images_b = make_stream(15, [3, 8, 8], 0.0, seed=7)
    logs = {}
    errors = []

    def client(name, images, seed):
        try:
            logs[name] = run_session(images, PROF, FAST, KEEP_ALL, mode="socket",
                                     seed=seed, server_addr=srv.address)
        except Exception as exc:  # surfaced after join
            errors.append((name, exc))

    with PipelineServer(prof=PROF) as srv:
        threads = [threading.Thread(target=client, args=("a", images_a, 8)),
                   threading.Thread(target=client, args=("b", images_b, 9))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    assert not errors
    assert len(logs["a"].records) == 15
    assert len(logs["b"].records) == 15
    assert len(srv.stats) == 2
    assert sorted(s.frames for s in srv.stats) == [15, 15]


def test_idle_timeout_closes_cleanly():
    with PipelineServer(prof=PROF, idle_timeout_s=0.2) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            time.sleep(0.5)
            assert sock.recv(1) == b""  # closed by the idle timer
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if srv.stats and srv.stats[0].closed_reason:
                break
            time.sleep(0.01)
        assert srv.stats[0].closed_reason == "eof_or_idle"
        assert srv.stats[0].protocol_errors == 0


@pytest.mark.parametrize("kwargs", [
    {"idle_timeout_s": -1.0}, {"idle_timeout_s": 0.0}, {"idle_timeout_s": float("nan")},
], ids=["timeout-negative", "timeout-zero", "timeout-nan"])
def test_unusable_setting_is_rejected_before_serving(kwargs):
    # accepted, each would kill its handler in settimeout before the socket is closed
    with pytest.raises(ArgumentError):
        PipelineServer(prof=PROF, **kwargs)


def test_stop_closes_live_connections_and_joins_handlers():
    before = set(threading.enumerate())
    srv = PipelineServer(prof=PROF).start()
    with socket.create_connection(srv.address, timeout=5.0) as sock:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not srv.stats:
            time.sleep(0.01)
        assert srv.stats, "the connection was never handled"
        srv.stop()
        sock.settimeout(1.0)
        assert sock.recv(1) == b""
    assert [t for t in threading.enumerate() if t not in before] == []


def test_stop_during_traffic_leaves_no_live_handlers():
    img = make_stream(1, [3, 4, 4], 0.0, seed=5)[0][0]
    frame = encode_message(quantize8(img))
    before = set(threading.enumerate())
    srv = PipelineServer(prof=PROF).start()

    def client():
        try:
            for _ in range(50):
                with socket.create_connection(srv.address, timeout=2.0) as sock:
                    sock.sendall(frame)
                    read_frame(sock)
        except OSError:
            pass  # the server went away mid-run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client) for _ in range(6)]
        for c in clients:
            c.start()
        time.sleep(0.1)
        srv.stop()
        for c in clients:
            c.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in clients)
    assert srv._live == set()
    assert [t for t in threading.enumerate() if t not in before] == []


def test_stop_joins_a_handler_that_is_still_closing(monkeypatch):
    # a handler leaves the live set before it closes its socket; held there,
    # it must still be joined by stop()
    closing = threading.Event()
    real_close = socket.socket.close

    def slow_close(sock):
        if sys._getframe(1).f_code.co_name == "_handle" and not closing.is_set():
            closing.set()
            time.sleep(0.3)
        real_close(sock)

    monkeypatch.setattr(socket.socket, "close", slow_close)
    before = set(threading.enumerate())
    srv = PipelineServer(prof=PROF).start()
    socket.create_connection(srv.address, timeout=2.0).close()
    assert closing.wait(timeout=5.0)
    srv.stop()
    assert [t for t in threading.enumerate() if t not in before] == []


def test_accept_error_does_not_end_the_server(monkeypatch):
    # one EMFILE from accept ended the accept thread, so later clients
    # connected into the backlog and were never answered
    failed = threading.Event()
    real_accept = socket.socket.accept

    def accept_fails_once(sock):
        if not failed.is_set():
            failed.set()
            raise OSError(errno.EMFILE, "Too many open files")
        return real_accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept_fails_once)
    images = make_stream(2, [3, 4, 4], 0.0, seed=30)
    with PipelineServer(prof=PROF) as srv:
        assert failed.wait(timeout=5.0)
        log = run_session(images, PROF, FAST, KEEP_ALL, mode="socket", seed=31,
                          server_addr=srv.address, connect_timeout_s=2.0)
    assert len(log.records) == 2


def test_a_handler_that_cannot_start_fails_start_cleanly(monkeypatch, capsys):
    # a failed Thread.start escaped start() as RuntimeError, leaked the bound
    # listener, and ended `serve` with a traceback instead of an exit code
    starts = []
    real_start = threading.Thread.start

    def third_start_fails(thread):
        starts.append(thread)
        if len(starts) == 3:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", third_start_fails)
    before = set(threading.enumerate())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TransportError, match="can't start new thread"):
            PipelineServer(prof=PROF).start()
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert [t for t in threading.enumerate() if t not in before] == []

    starts.clear()
    assert cli.main(["serve", "--addr", "127.0.0.1:0"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot start handler threads")
    assert [t for t in threading.enumerate() if t not in before] == []


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


def test_idle_peers_beyond_the_handlers_wait_in_the_backlog():
    # with a thread per connection, 12 idle peers held 13 server threads
    before = set(threading.enumerate())
    srv = PipelineServer(prof=PROF).start()
    try:
        peers = [socket.create_connection(srv.address, timeout=2.0)
                 for _ in range(HANDLERS + 4)]
        try:
            assert _wait_for(lambda: len(srv.stats) >= HANDLERS)
            time.sleep(0.1)  # room for any further accept
            assert len(srv.stats) == HANDLERS
            assert len([t for t in threading.enumerate() if t not in before]) <= HANDLERS
        finally:
            for peer in peers:
                peer.close()
        images = make_stream(2, [3, 4, 4], 0.0, seed=40)
        log = run_session(images, PROF, FAST, KEEP_ALL, mode="socket", seed=41,
                          server_addr=srv.address, connect_timeout_s=2.0)
        assert len(log.records) == 2
    finally:
        srv.stop()
    assert [t for t in threading.enumerate() if t not in before] == []


def test_a_session_behind_stalled_peers_is_served_once_they_time_out():
    images = make_stream(2, [3, 4, 4], 0.0, seed=42)
    with PipelineServer(prof=PROF, idle_timeout_s=0.3) as srv:
        peers = [socket.create_connection(srv.address, timeout=2.0)
                 for _ in range(HANDLERS)]
        try:
            assert _wait_for(lambda: len(srv.stats) == HANDLERS)
            log = run_session(images, PROF, FAST, KEEP_ALL, mode="socket", seed=43,
                              server_addr=srv.address, connect_timeout_s=2.0)
        finally:
            for peer in peers:
                peer.close()
    assert len(log.records) == 2
    assert [s.closed_reason for s in srv.stats[:HANDLERS]] == ["eof_or_idle"] * HANDLERS
    assert srv.stats[HANDLERS].frames == 2


def test_stop_during_a_reply_records_why_the_connection_ended(monkeypatch):
    # a stop() that landed after a reply and before the next read ended the
    # handler's loop with no closed_reason
    t = make_stream(1, [3, 5, 5], 0.0, seed=34)[0][0]
    srv = PipelineServer(prof=PROF)
    real_respond = srv._respond

    def respond_then_stop(msg, stats):
        reply = real_respond(msg, stats)
        srv._stop.set()  # the first thing stop() does
        return reply

    monkeypatch.setattr(srv, "_respond", respond_then_stop)
    srv.start()
    try:
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(encode_message(quantize8(t)))
            assert read_frame(sock).msg_type is MsgType.DETECTION_RESULT
            assert sock.recv(1) == b""  # the handler ends without a further read
    finally:
        srv.stop()
    assert [s.closed_reason for s in srv.stats] == ["stopped"]


def test_bind_failure_raises_transport_error():
    with PipelineServer(prof=PROF) as srv:
        host, port = srv.address
        with pytest.raises(TransportError):
            PipelineServer(host=host, port=port, prof=PROF).start()


def test_bind_failure_closes_the_listener():
    with PipelineServer(prof=PROF) as srv:
        host, port = srv.address
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TransportError):
                PipelineServer(host=host, port=port, prof=PROF).start()
            gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_wire_valid_but_codec_invalid_frame_closes_connection():
    # negative zero_point survives framing but fails codec validation
    bad = WireMessage(MsgType.QTENSOR8, (4,), 0.5, -5, b"\x01\x02\x03\x04")
    with PipelineServer(prof=PROF) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(encode_message(bad))
            try:
                assert read_frame(sock) is None
            except ConnectionResetError:
                pass
        # and the server still takes new work
        images = make_stream(2, [3, 4, 4], 0.0, seed=20)
        log = run_session(images, PROF, FAST, KEEP_ALL, mode="socket",
                          seed=21, server_addr=srv.address)
        assert len(log.records) == 2


@pytest.mark.parametrize("msg_type, dtype", [(MsgType.QTENSOR16, "<f2"),
                                             (MsgType.FTENSOR32, "<f4")],
                         ids=["qtensor16", "ftensor32"])
def test_non_finite_tensor_frame_is_a_protocol_error(msg_type, dtype):
    nan = np.array([0.5, np.nan, -0.25, 1.0], dtype=dtype).tobytes()
    with PipelineServer(prof=PROF) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(encode_message(WireMessage(msg_type, (1, 2, 2), 1.0, 0, nan)))
            try:
                assert read_frame(sock) is None
            except ConnectionResetError:
                pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not srv.stats[0].closed_reason:
            time.sleep(0.01)
        assert srv.stats[0].protocol_errors == 1
        assert srv.stats[0].closed_reason.startswith("protocol_error")


def test_empty_result_frames_are_echoed():
    with PipelineServer(prof=PROF) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(encode_message(empty_result_message()))
            reply = read_frame(sock)
    assert reply.msg_type is MsgType.EMPTY_RESULT


def test_jpeg_frames_are_acknowledged():
    import hashlib

    payload = b"\xff\xd8 not really a jpeg \xff\xd9"
    with PipelineServer(prof=PROF) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(encode_message(WireMessage(MsgType.JPEG_IMAGE,
                                                    payload=payload)))
            reply = read_frame(sock)
    assert reply.msg_type is MsgType.DETECTION_RESULT
    assert reply.payload == hashlib.sha256(payload).digest()
    # the full model runs on the server, as in the PO strategy
    assert srv.stats[0].tail_seconds == PROF.t_edge_full


def test_token_bucket_paces_wall_clock_uplink():
    # 80 kbit frame at 2 Mbps should take roughly 40 ms on loopback
    images = make_stream(1, [10, 10, 100], 0.0, seed=12)
    ch = ChannelModel(2e6)
    with PipelineServer(prof=PROF) as srv:
        log = run_session(images, PROF, ch, KEEP_ALL, mode="socket", seed=13,
                          server_addr=srv.address)
    expected = 8 * log.records[0].bytes_sent / ch.rate_bps
    assert log.records[0].t_uplink >= 0.5 * expected
