import socket
import struct
import threading

import numpy as np
import pytest

from splitwire.codec import passthrough32, quantize8, quantize16, wire_header_bytes
from splitwire.errors import ArgumentError, ProtocolError, TransportError
from splitwire.latency import (ChannelModel, ExecutionProfile, PayloadSizes, total_delay,
                               transfer_time)
from splitwire.pipeline import session
from splitwire.pipeline.filtergate import FilterModel
from splitwire.pipeline.server import PipelineServer
from splitwire.pipeline.session import make_stream, read_frame, run_session
from splitwire.pipeline.wire import (MAGIC, detection_result_message, encode_message,
                                    quantized_to_message)
from splitwire.tensor import Shape, make_tensor, random_fill

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
    images.append((make_tensor([2, 3], [0.25] * 6), False))
    log = run_session(images, PROF, CH, SHARP_FM, mode="simulated", seed=17, width=width)
    quantize = {8: quantize8, 16: quantize16, 32: passthrough32}[width]
    for (img, _), r in zip(images, log.records):
        assert not r.filtered
        assert r.bytes_sent == len(encode_message(quantized_to_message(quantize(img))))
        assert r.t_uplink == transfer_time(r.bytes_sent, CH)


def test_bad_width_raises_even_when_every_image_is_dropped():
    drop_all = FilterModel(threshold=1.0, p_empty=0.5, mu_empty=-30.0,
                           sigma_empty=0.1, mu_nonempty=30.0, sigma_nonempty=0.1)
    images = [(img, True) for img, _ in make_stream(4, [3, 2, 2], 1.0, seed=18)]
    log = run_session(images, PROF, CH, drop_all, mode="simulated", seed=19)
    assert log.drop_rate == 1.0
    with pytest.raises(ArgumentError):
        run_session(images, PROF, CH, drop_all, mode="simulated", seed=19, width=12)


def test_make_stream_respects_prior_and_determinism():
    stream = make_stream(2000, [3, 2, 2], 0.46, seed=15)
    frac_empty = np.mean([empty for _, empty in stream])
    assert frac_empty == pytest.approx(0.46, abs=0.04)
    again = make_stream(2000, [3, 2, 2], 0.46, seed=15)
    assert all(a[1] == b[1] and a[0] == b[0] for a, b in zip(stream, again))


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
    slow = ExecutionProfile(t_local=2.0, t_edge_full=0.05, t_head=0.08,
                            t_tail=0.6, t_filter_extra=0.004)
    images = make_stream(1, [3, 4, 4], 0.0, seed=21)
    with PipelineServer(prof=slow, tail_mode="sleep") as srv:
        with pytest.raises(TransportError) as info:
            run_session(images, slow, CH, SHARP_FM, mode="socket", seed=22,
                        server_addr=srv.address, connect_timeout_s=0.3)
    assert "no reply" in str(info.value)
    assert "closed" not in str(info.value)


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


def test_each_recv_is_bounded_whatever_the_header_claims():
    # a dimless JPEG_IMAGE header claiming a 4 GiB payload, then EOF
    header = MAGIC + bytes([1, 0, 0]) + struct.pack(">fiQ", 0.0, 0, 1 << 32)
    sock = _RecordingSocket(header)
    with pytest.raises(TransportError, match="closed mid-frame"):
        read_frame(sock)
    assert max(sock.asked) <= 1 << 20
