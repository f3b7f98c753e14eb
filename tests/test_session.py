import hashlib
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from splitwire.codec import dequantize, quantize8, quantize16
from splitwire.errors import ArgumentError, CodecError, ProtocolError, TransportError
from splitwire.latency import (ChannelModel, ExecutionProfile, PayloadSizes, total_delay,
                               transfer_time)
from splitwire.pipeline import session
from splitwire.pipeline.filtergate import FilterModel
from splitwire.pipeline.server import PipelineServer
from splitwire.pipeline.session import make_stream, read_frame, run_session
from splitwire.pipeline.wire import (MAGIC, MAX_PAYLOAD_BYTES, MsgType, WireMessage,
                                    decode_message, detection_result_message,
                                    encode_message, load_message, save_message,
                                    tensor_digest, tensor_to_message, wire_header_bytes)
from splitwire.tensor import Shape, random_fill

PROF = ExecutionProfile(t_local=2.0, t_edge_full=0.05, t_head=0.08,
                        t_tail=0.04, t_filter_extra=0.004)
CH = ChannelModel(5e6)

# every empty image scores far below any threshold; non-empty far above
SHARP_FM = FilterModel(threshold=0.1, p_empty=0.5, mu_empty=-30.0,
                       sigma_empty=0.1, mu_nonempty=30.0, sigma_nonempty=0.1)


def test_all_empty_stream_sends_nothing():
    images = [(img, True) for img, _ in make_stream(100, [3, 16, 16], 1.0, seed=1)]
    log = run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=2)
    assert log.total_bytes == 0
    assert log.drop_rate == 1.0
    expected = PROF.t_head + PROF.t_filter_extra
    assert all(r.total == expected for r in log.records)
    assert all(r.t_tail == 0.0 and r.bytes_sent == 0 for r in log.records)


def test_simulated_mean_matches_scnf_closed_form():
    images = make_stream(400, [3, 24, 24], 0.5, seed=3)
    log = run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=4)
    assert 0.0 < log.drop_rate < 1.0
    frame_bytes = next(r.bytes_sent for r in log.records if not r.filtered)
    sizes = PayloadSizes(10 ** 9, frame_bytes, 2 * frame_bytes, 4 * frame_bytes)
    formula = total_delay("SCNF", PROF, CH, sizes, width=8,
                          p_drop=log.drop_rate).total
    assert abs(log.mean_total - formula) < 1e-9


def test_bytes_conservation():
    images = make_stream(120, [3, 10, 10], 0.4, seed=5)
    log = run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=6)
    kept = [r for r in log.records if not r.filtered]
    frame = 3 * 10 * 10 + wire_header_bytes(3)
    assert all(r.bytes_sent == frame for r in kept)
    assert log.total_bytes == frame * len(kept)


def test_filtered_records_carry_no_uplink_or_tail():
    images = make_stream(200, [3, 8, 8], 0.6, seed=7)
    log = run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=8)
    for r in log.records:
        if r.filtered:
            assert r.bytes_sent == 0 and r.t_uplink == 0.0 and r.t_tail == 0.0
        else:
            assert r.bytes_sent > 0 and r.t_uplink > 0.0 and r.t_tail == PROF.t_tail


def test_simulated_log_is_byte_identical_per_seed(tmp_path):
    images = make_stream(60, [3, 12, 12], 0.5, seed=9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=10).to_csv(str(a))
    run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=10).to_csv(str(b))
    assert a.read_bytes() == b.read_bytes()


def test_session_csv_columns(tmp_path):
    images = make_stream(5, [3, 4, 4], 0.5, seed=11)
    log = run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=12)
    path = tmp_path / "log.csv"
    log.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "image_id,filtered,bytes_sent,t_head,t_uplink,t_tail,total"
    assert len(lines) == 6


def test_widths_16_and_32_change_frame_size():
    images = make_stream(10, [3, 6, 6], 0.0, seed=13)
    logs = {w: run_session(images, PROF, CH, SHARP_FM, mode="simulated",
                           seed=14, width=w) for w in (8, 16, 32)}
    sizes = {w: logs[w].records[0].bytes_sent for w in (8, 16, 32)}
    numel = 3 * 6 * 6
    header = wire_header_bytes(3)
    assert sizes == {8: numel + header, 16: 2 * numel + header,
                     32: 4 * numel + header}


@pytest.mark.parametrize("width", [8, 16, 32])
def test_simulated_bytes_are_the_real_frame_size(width):
    shapes = [[7], [3, 5], [2, 3, 4], [2, 1, 3, 2]]
    images = [(random_fill(Shape(dims), 40 + k, -1.0, 1.0), False)
              for k, dims in enumerate(shapes)]
    images.append((np.full((2, 3), 0.25, dtype=np.float32), False))
    log = run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=17, width=width)
    quantize = {8: quantize8, 16: quantize16, 32: tensor_to_message}[width]
    for (img, _), r in zip(images, log.records):
        assert not r.filtered
        assert r.bytes_sent == len(encode_message(quantize(img)))
        assert r.t_uplink == transfer_time(r.bytes_sent, CH)


def test_bad_width_raises_even_when_every_image_is_dropped():
    drop_all = FilterModel(threshold=1.0, p_empty=0.5, mu_empty=-30.0,
                           sigma_empty=0.1, mu_nonempty=30.0, sigma_nonempty=0.1)
    images = [(img, True) for img, _ in make_stream(4, [3, 2, 2], 1.0, seed=18)]
    log = run_session(images, PROF, CH, drop_all, mode="simulated", seed=19)
    assert log.drop_rate == 1.0
    with pytest.raises(ArgumentError):
        run_session(images, PROF, CH, drop_all, mode="simulated", seed=19, width=12)


@pytest.mark.parametrize("mode", ["simulated", "socket"])
def test_a_rank_no_header_carries_is_refused_whatever_the_gate_drops(mode):
    drop_all = FilterModel(threshold=1.0, p_empty=0.5, mu_empty=-30.0,
                           sigma_empty=0.1, mu_nonempty=30.0, sigma_nonempty=0.1)
    img = np.zeros((1,) * 9, dtype=np.float32)
    with pytest.raises(ArgumentError, match="at most 8 dims, got 9"):
        run_session([(img, True)], PROF, CH, drop_all, mode=mode,
                    server_addr=("127.0.0.1", 1), connect_timeout_s=0.5)


def test_make_stream_respects_prior_and_determinism():
    stream = make_stream(2000, [3, 2, 2], 0.46, seed=15)
    frac_empty = np.mean([empty for _, empty in stream])
    assert frac_empty == pytest.approx(0.46, abs=0.04)
    again = make_stream(2000, [3, 2, 2], 0.46, seed=15)
    assert all(a[1] == b[1] and a[0].shape == b[0].shape
               and np.array_equal(a[0], b[0]) for a, b in zip(stream, again))


# SHA-256, per width, over each pool tensor's frame hash and then the digest of
# its dequantized tensor: the bytes perfbench's loopback pool sends and checks
POOL_DIGESTS = {
    8: "1fcf1ae509899b96693bd49f56d6d5adce301f16cc23b2add06252b890bb657e",
    16: "0fde384215a8254db4333e5b924b34b353a07d14369c4f3006c43043b75001fb",
    32: "d31f6b4c62d15568e3e3de2874597bb1bbd43fd771806b84be8ec2f9659e8f14",
}


def test_reference_pool_frames_and_digests_are_pinned():
    pool = make_stream(4, (3, 223, 265), 0.46, seed=1)
    assert [empty for _, empty in pool] == [True, False, True, True]
    for width, quantize in ((8, quantize8), (16, quantize16), (32, tensor_to_message)):
        h = hashlib.sha256()
        for t, _ in pool:
            q = quantize(t)
            h.update(hashlib.sha256(encode_message(q)).digest())
            h.update(tensor_digest(dequantize(q)))
        assert h.hexdigest() == POOL_DIGESTS[width], width


def test_argument_validation():
    with pytest.raises(ArgumentError):
        make_stream(0, [3, 2, 2], 0.5, seed=1)
    images = make_stream(3, [3, 2, 2], 0.5, seed=1)
    with pytest.raises(ArgumentError):
        run_session(images, PROF, CH, SHARP_FM, mode="carrier-pigeon")
    with pytest.raises(ArgumentError):
        run_session([], PROF, CH, SHARP_FM)
    with pytest.raises(ArgumentError):
        run_session(images, PROF, CH, SHARP_FM, mode="socket", server_addr=None)


def test_socket_mode_without_server_raises_transport_error():
    images = make_stream(2, [3, 2, 2], 0.0, seed=16)
    with pytest.raises(TransportError):
        run_session(images, PROF, CH, SHARP_FM, mode="socket",
                    server_addr=("127.0.0.1", 1), connect_timeout_s=0.5)


def test_a_frame_over_the_cap_is_refused_before_connecting():
    # a 16,785,408-byte payload, over MAX_PAYLOAD_BYTES by 8,192; the zero-stride
    # view holds one float. No server listens on port 1: the refusal comes first
    img = np.broadcast_to(np.float32(0), (1, 2049, 2048))
    with pytest.raises(ArgumentError, match="MAX_PAYLOAD_BYTES"):
        run_session([(img, False)], PROF, CH, SHARP_FM, mode="socket", width=32,
                    server_addr=("127.0.0.1", 1), connect_timeout_s=0.5)


def test_socket_mode_quantizes_each_kept_image_once(monkeypatch):
    calls = []
    quantize8 = session.quantize8

    def counting(t):
        calls.append(t)
        return quantize8(t)

    monkeypatch.setattr(session, "quantize8", counting)
    images = make_stream(12, [3, 4, 4], 0.5, seed=17)
    with PipelineServer(prof=PROF) as srv:
        log = run_session(images, PROF, CH, SHARP_FM, mode="socket", seed=18,
                          server_addr=srv.address)
    kept = sum(not r.filtered for r in log.records)
    assert 0 < kept < 12
    assert len(calls) == kept


def test_wrong_reply_digest_raises_protocol_error():
    listener = socket.create_server(("127.0.0.1", 0))

    def stub_tail():
        conn, _ = listener.accept()
        with conn:
            read_frame(conn)
            conn.sendall(encode_message(detection_result_message(bytes(32))))
            conn.recv(1)  # hold the connection until the client closes it

    tail = threading.Thread(target=stub_tail, daemon=True)
    tail.start()
    images = make_stream(1, [3, 4, 4], 0.0, seed=19)
    try:
        with pytest.raises(ProtocolError, match="tensor digest mismatch"):
            run_session(images, PROF, CH, SHARP_FM, mode="socket", seed=20,
                        server_addr=listener.getsockname())
    finally:
        tail.join(timeout=5.0)
        listener.close()
    assert not tail.is_alive()


def test_slow_reply_is_a_timeout_not_a_closed_connection():
    # a stub tail that reads the frame and never replies
    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def silent_tail():
        conn, _ = listener.accept()
        with conn:
            read_frame(conn)
            done.wait(timeout=5.0)

    tail = threading.Thread(target=silent_tail, daemon=True)
    tail.start()
    images = make_stream(1, [3, 4, 4], 0.0, seed=21)
    try:
        with pytest.raises(TransportError) as info:
            run_session(images, PROF, CH, SHARP_FM, mode="socket", seed=22,
                        server_addr=listener.getsockname(), connect_timeout_s=0.3)
    finally:
        done.set()
        tail.join(timeout=5.0)
        listener.close()
    assert not tail.is_alive()
    assert "no reply" in str(info.value)
    assert "closed" not in str(info.value)


class _SendRecorder:
    """A connected socket that notes each sendall in a shared event list."""

    def __init__(self, sock: socket.socket, events: list):
        self.sock = sock
        self.events = events

    def sendall(self, data) -> None:
        self.events.append(("sendall", len(data)))
        self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


@pytest.fixture()
def client_sockets(monkeypatch):
    """Every socket run_session connects, wrapped in a _SendRecorder."""
    events: list = []
    opened: list[_SendRecorder] = []
    connect = socket.create_connection

    def recording(*args, **kwargs):
        opened.append(_SendRecorder(connect(*args, **kwargs), events))
        return opened[-1]

    monkeypatch.setattr(session.socket, "create_connection", recording)
    return events, opened


def test_digest_is_computed_in_the_first_pacing_wait(monkeypatch, client_sockets):
    events, _ = client_sockets
    digest = session.tensor_digest

    def noting(t):
        events.append(("digest",))
        return digest(t)

    monkeypatch.setattr(session, "tensor_digest", noting)
    images = make_stream(1, [3, 8, 8], 0.0, seed=23)
    ch = ChannelModel(80e3)  # 100-byte chunks: the 227-byte frame takes three
    with PipelineServer(prof=PROF) as srv:
        log = run_session(images, PROF, ch, SHARP_FM, mode="socket", seed=24,
                          server_addr=srv.address)
    assert log.records[0].bytes_sent == 227
    assert events == [("sendall", 100), ("digest",), ("sendall", 100), ("sendall", 27)]
    assert log.records[0].t_uplink >= 227 / 10e3


def test_unpaced_link_time_excludes_the_digest(monkeypatch):
    digest = session.tensor_digest

    def slow(t):
        time.sleep(0.05)
        return digest(t)

    monkeypatch.setattr(session, "tensor_digest", slow)
    images = make_stream(1, [3, 8, 8], 0.0, seed=25)
    with PipelineServer(prof=PROF) as srv:
        log = run_session(images, PROF, ChannelModel(1e15), SHARP_FM, mode="socket",
                          seed=26, server_addr=srv.address)
    assert log.records[0].t_uplink < 0.05


def test_failed_verify_closes_the_socket_and_the_server_serves_on(monkeypatch,
                                                                  client_sockets):
    _, opened = client_sockets
    raised = CodecError("dequantize failed")

    def failing(q):
        raise raised

    images = make_stream(1, [3, 8, 8], 0.0, seed=27)
    with PipelineServer(prof=PROF) as srv:
        with monkeypatch.context() as patch:
            patch.setattr(session, "dequantize", failing)
            with pytest.raises(CodecError) as info:
                run_session(images, PROF, ChannelModel(80e3), SHARP_FM, mode="socket",
                            seed=28, server_addr=srv.address)
        assert info.value is raised
        assert opened[0].fileno() == -1
        log = run_session(images, PROF, ChannelModel(80e3), SHARP_FM, mode="socket",
                          seed=28, server_addr=srv.address)
    assert not log.records[0].filtered


@pytest.mark.parametrize("width", [8, 16])
def test_non_finite_tensor_is_a_codec_error_before_the_send(width, client_sockets):
    events, _ = client_sockets
    vals = np.full((3, 8, 8), 0.5, dtype=np.float32)
    vals[0, 0, 7] = np.nan
    images = [(vals, False)]
    with PipelineServer(prof=PROF) as srv:
        with pytest.raises(CodecError, match="NaN or Inf"):
            run_session(images, PROF, CH, SHARP_FM, mode="socket", seed=29, width=width,
                        server_addr=srv.address)
    assert events == []


def test_bad_version_is_rejected_after_the_prefix():
    head, tail = socket.socketpair()
    with head, tail:
        tail.settimeout(2.0)
        head.sendall(MAGIC + bytes([9, 1, 0]))
        with pytest.raises(ProtocolError, match="unsupported version 9"):
            read_frame(tail)


class _RecordingSocket:
    """Serves fixed bytes, then end-of-stream; records each recv size."""

    def __init__(self, data: bytes):
        self.data = data
        self.asked: list[int] = []

    def recv(self, n: int) -> bytes:
        self.asked.append(n)
        chunk, self.data = self.data[:n], self.data[n:]
        return chunk

    def recv_into(self, buf, n: int = 0) -> int:
        chunk = self.recv(n or len(buf))
        buf[:len(chunk)] = chunk
        return len(chunk)


def _header(msg_type: int, dims: tuple, payload_len: int, scale: float = 1.0) -> bytes:
    """A frame header of any type byte, unchecked."""
    return (MAGIC + bytes([1, msg_type, len(dims)]) + struct.pack(f">{len(dims)}I", *dims)
            + struct.pack(">fiQ", scale, 0, payload_len))


def test_each_recv_is_bounded_whatever_the_header_claims():
    # a dimless JPEG_IMAGE header claiming the largest payload allowed, then EOF
    sock = _RecordingSocket(_header(MsgType.JPEG_IMAGE, (), MAX_PAYLOAD_BYTES))
    tracemalloc.start()
    try:
        with pytest.raises(TransportError, match="closed mid-frame"):
            read_frame(sock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sock.asked) <= 1 << 20
    # the header alone reserves no more than one recv's worth
    assert peak < 1.1 * (1 << 20)


@pytest.mark.parametrize("make", [
    lambda: quantize8(random_fill(Shape([3, 223, 265]), 1, -1.0, 1.0)),
    lambda: WireMessage(MsgType.JPEG_IMAGE, payload=bytes(MAX_PAYLOAD_BYTES)),
], ids=["reference-qtensor8", "jpeg-at-cap"])
def test_one_read_holds_the_frame_once(make):
    frame = encode_message(make())
    head, tail = socket.socketpair()
    with head, tail:
        tail.settimeout(10.0)
        sender = threading.Thread(target=head.sendall, args=(frame,))
        sender.start()
        tracemalloc.start()
        try:
            msg = read_frame(tail)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sender.join(timeout=10.0)
    assert not sender.is_alive()
    assert encode_message(msg) == frame
    assert peak <= 1.1 * len(frame)


def test_a_decoded_payload_is_read_only_and_never_aliased(tmp_path):
    first, second = (quantize8(random_fill(Shape([3, 8, 8]), seed, -1.0, 1.0))
                     for seed in (1, 2))
    head, tail = socket.socketpair()
    with head, tail:
        tail.settimeout(2.0)
        head.sendall(encode_message(first) + encode_message(second))
        got_first, got_second = read_frame(tail), read_frame(tail)
    assert got_first == decode_message(encode_message(first)) == first
    assert got_second == second
    save_message(str(tmp_path / "first.bin"), first)
    for msg in (got_first, got_second, load_message(str(tmp_path / "first.bin"))):
        with pytest.raises(TypeError):
            msg.payload[0] = 0
        assert hash(msg) == hash(first if msg == first else second)


@pytest.mark.parametrize("msg_type, dims, payload_len, scale, match", [
    (MsgType.QTENSOR8, (1,), 3 << 20, 1.0, "does not fit QTENSOR8 dims"),
    (MsgType.FTENSOR32, (2, 3), 25, 1.0, "does not fit FTENSOR32 dims"),
    (MsgType.JPEG_IMAGE, (), MAX_PAYLOAD_BYTES + 1, 1.0, "exceeds"),
    (MsgType.JPEG_IMAGE, (), (1 << 32) - 1, 1.0, "exceeds"),
    (MsgType.QTENSOR8, (1 << 16, 1 << 16), 1 << 32, 1.0, "exceeds"),
    # every rule of the record stops the reader too
    (200, (), 2 << 20, 1.0, "unknown msg_type 200"),
    (MsgType.JPEG_IMAGE, (4,), 2 << 20, 1.0, "JPEG_IMAGE must not carry dims"),
    (MsgType.EMPTY_RESULT, (), 2 << 20, 1.0, "EMPTY_RESULT must have no payload"),
    (MsgType.QTENSOR8, (2 << 20,), 2 << 20, float("nan"), "scale must be finite"),
], ids=["qtensor8-3mib", "ftensor32-short", "jpeg-over-cap", "jpeg-4gib", "tensor-over-cap",
        "unknown-type", "jpeg-with-dims", "empty-result-with-payload", "nan-scale"])
def test_a_frame_is_bounded_before_its_payload_is_read(msg_type, dims, payload_len, scale,
                                                       match):
    # the payload is there to be read: only the header check can stop the reads
    header = _header(msg_type, dims, payload_len, scale)
    sock = _RecordingSocket(header + bytes(min(payload_len, 1 << 21)))
    with pytest.raises(ProtocolError, match=match):
        read_frame(sock)
    assert sum(sock.asked) == len(header)
