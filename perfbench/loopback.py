"""Loopback workloads: the head in this process, the tail in its own.

Each image is handed to ``splitwire.pipeline.run_session`` on its own, in a
closed loop from this one client process, so its latency runs from the
hand-over to the verified reply digest. ``run_session`` opens one
connection per call, so the loop holds one connection at a time.

Inputs are a pool of distinct seeded reference-shape bottleneck tensors,
larger than the L2 cache, combined with a cycle of session seeds that
decide the prefilter drops.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import MachineClock, Outcome, ROOT, ReferenceKernel, maxrss_mb, median, p10, p90
from tracing import Tracer, p10_self_ms, patch_client, self_time_table, under

HERE = Path(__file__).resolve().parent

REF_DIMS = (3, 223, 265)   # the reference bottleneck, 177,285 elements
POOL_SIZE = 32             # 32 x 709 KB of float32, about 23 MB
CYCLE = 256                # distinct (tensor, session seed) pairs per run
UNPACED_BPS = 1e15         # a single chunk holds the frame: no pacing sleeps
SETUP_REPS = 7
WARMUP_IMAGES = POOL_SIZE  # touches every pool tensor once
SERVER_TIMEOUT_S = 60.0

# Per-layer metrics read as the 10th percentile self time of the span of that name.
_SPAN_METRICS = (
    "tensor.random_fill", "codec.quantize8", "codec.dequantize", "wire.encode",
    "wire.decode", "session.send", "session.reply_wait", "session.verify",
    "server.read_frame", "server.dequantize", "server.digest", "server.reply",
    "filtergate.sample_scores",
)
# Per-layer metrics counted without spans, in ``Loopback.counts``.
_COUNT_METRICS = (
    "session.drop_ratio", "session.client_cpu_ms_per_image", "session.uplink_err_ms",
    "server.cpu_ms_per_image", "server.frames", "server.bytes_received",
    "server.protocol_errors",
)
METRICS = frozenset({
    *(f"{name}_ms" for name in _SPAN_METRICS), *_COUNT_METRICS,
    "codec.quantize8_calls_per_image", "wire.frame_bytes", "ref.kernel_ms",
    "trace.overhead_ratio",
})


class TailServer:
    """The benchmark-launched tail server process (``tail_server.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "tail_server.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.port = self._reply()["port"]
        except BaseException:
            self.close()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _reply(self) -> dict:
        line = self._lines.get(timeout=SERVER_TIMEOUT_S)
        if line is None:
            raise RuntimeError("tail server exited")
        return json.loads(line)

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> dict | None:
        """Stop the server, wait for it to end; its last report, if any."""
        report = None
        if self.proc.poll() is None:
            try:
                report = self.command("stop")
            except (OSError, RuntimeError, ValueError, queue.Empty):
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        return report


@dataclass
class Image:
    index: int
    key: int            # position in the input cycle
    start_ns: int
    latency_ns: int
    log: object | None  # SessionLog
    error: str | None


class Loopback:
    def __init__(self, sw, seed: int, paced: bool):
        self.sw = sw
        self.seed = seed
        self.paced = paced
        self.cfg = None
        self.pool = None
        self.server: TailServer | None = None
        self.kernel = ReferenceKernel()

    # --- inputs and set-up -------------------------------------------------

    def channel(self, paced: bool):
        rate = self.cfg.channel.rate_bps if paced else UNPACED_BPS
        return self.sw.latency.ChannelModel(rate)

    def setup(self, outcome: Outcome) -> tuple[int, float]:
        """Config load, server ready, input generation and warm-up: when it
        started (ns) and how long it took (s)."""
        from splitwire.pipeline import make_stream
        for _ in range(3):
            self.kernel.sample()
        start_ns = time.perf_counter_ns()
        start = time.perf_counter()
        self.cfg = self.sw.load_reference_config()
        self.server = TailServer()
        self.pool = make_stream(POOL_SIZE, REF_DIMS, self.cfg.filter.p_empty, self.seed)
        ch = self.channel(paced=False)
        warm = [self.one_image(i, ch, self.sw.pipeline.run_session)
                for i in range(WARMUP_IMAGES)]
        elapsed = time.perf_counter() - start
        self.check(warm, self.server.command("mark"), outcome)
        return start_ns, elapsed

    def close(self) -> dict | None:
        report = self.server.close() if self.server is not None else None
        self.server = None
        return report

    def link_ms(self) -> float:
        """Modelled uplink time of one frame at the workload's rate."""
        return 1e3 * 8.0 * self.cfg.sizes.bottleneck_bytes_8 / self.channel(self.paced).rate_bps

    def session_seed(self, key: int) -> int:
        return self.seed * CYCLE + key

    def one_image(self, index: int, ch, call) -> Image:
        from splitwire.errors import SplitwireError
        key = index % CYCLE
        img, empty = self.pool[key % POOL_SIZE]
        start = time.perf_counter_ns()
        try:
            log = call([(img, empty)], self.cfg.profile, ch, self.cfg.filter,
                       mode="socket", seed=self.session_seed(key), width=8,
                       server_addr=("127.0.0.1", self.server.port))
            error = None
        except (SplitwireError, OSError) as exc:
            log, error = None, f"{type(exc).__name__}: {exc}"
        return Image(index, key, start, time.perf_counter_ns() - start, log, error)

    def timed(self, seconds: float, tracer: Tracer | None = None):
        call = self.sw.pipeline.run_session
        if tracer is not None:
            call = tracer.wrap("session.run", call)
        ch = self.channel(self.paced)
        images = []
        clock = MachineClock(self.kernel)
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            if self.kernel.due():
                self.kernel.sample()
            if tracer is not None:
                tracer.image = index
            images.append(self.one_image(index, ch, call))
            index += 1
        return images, clock.finish()

    # --- correctness -------------------------------------------------------

    def check(self, images: list[Image], server_doc: dict, outcome: Outcome) -> None:
        """Per-image checks; each failed image counts once."""
        run_session = self.sw.pipeline.run_session
        frame_bytes = self.cfg.sizes.bottleneck_bytes_8
        simulated: dict[int, bool] = {}
        kept = errored = 0
        outcome.attempted += len(images)
        for im in images:
            if im.error is not None:
                errored += 1
                outcome.fail(f"image {im.index}: {im.error}")
                continue
            if len(im.log.records) != 1:
                outcome.fail(f"image {im.index}: {len(im.log.records)} records")
                continue
            rec = im.log.records[0]
            if not rec.filtered:
                kept += 1
                if rec.bytes_sent != frame_bytes:
                    outcome.fail(f"image {im.index}: {rec.bytes_sent} bytes sent")
                    continue
            if im.key not in simulated:
                img, empty = self.pool[im.key % POOL_SIZE]
                sim = run_session([(img, empty)], self.cfg.profile, self.cfg.channel,
                                  self.cfg.filter, mode="simulated",
                                  seed=self.session_seed(im.key), width=8)
                simulated[im.key] = sim.records[0].filtered
            if simulated[im.key] != rec.filtered:
                outcome.fail(f"image {im.index}: drop decision differs from simulated")
        # a session that failed may or may not have delivered its frame
        frames = server_doc["frames"]
        off = kept - frames if frames < kept else max(0, frames - kept - errored)
        for _ in range(off):
            outcome.fail(f"server counted {frames} frames for {kept} kept images")
        if server_doc["protocol_errors"]:
            outcome.fail(f"server saw {server_doc['protocol_errors']} protocol errors")

    # --- metrics -----------------------------------------------------------

    def counts(self, images: list[Image], machine: dict, server_doc: dict) -> dict:
        """Measures that need no tracing, for one timed phase."""
        records = [im.log.records[0] for im in images if im.log is not None]
        kept = [r for r in records if not r.filtered]
        rate = self.channel(self.paced).rate_bps
        n = max(1, len(images))
        return {
            "images": len(images),
            "kept": len(kept),
            "session.drop_ratio": (len(records) - len(kept)) / n,
            "session.client_cpu_ms_per_image": 1e3 * machine["client_cpu_s"] / n,
            "session.uplink_err_ms": 1e3 * median(
                [abs(r.t_uplink - 8.0 * r.bytes_sent / rate) for r in kept]),
            "session.uplink_ms": 1e3 * median([r.t_uplink for r in kept]),
            "session.uplink_model_ms": 1e3 * median(
                [8.0 * r.bytes_sent / rate for r in kept]),
            "server.frames": server_doc["frames"],
            "server.bytes_received": server_doc["bytes_received"],
            "server.protocol_errors": server_doc["protocol_errors"],
            "server.cpu_ms_per_image": 1e3 * server_doc["cpu_s"] / max(1, server_doc["frames"]),
            "server_cpu_s": server_doc["cpu_s"],
            **machine,
        }


def _kept(images: list[Image]) -> list[Image]:
    """The images that went over the wire (not dropped, no error)."""
    return [im for im in images if im.log is not None and not im.log.records[0].filtered]


def _latency_ms(images: list[Image]) -> list[float]:
    return [im.latency_ns / 1e6 for im in _kept(images)]


def _norm_latency_p10_ms(bench: Loopback, images: list[Image]) -> float:
    """p10 latency of the kept images, the part beyond the modelled link time
    scaled to the reference speed."""
    link_ms = bench.link_ms()
    return p10([bench.kernel.scale(im.start_ns, im.latency_ns / 1e6, link_ms)
                for im in _kept(images)])


def _nesting(images: list[Image], client: list[dict], server: list[dict]) -> dict:
    """How well the spans of each image nest.

    Client: the share of the image's wall time, as timed around the call,
    that its ``session.run`` span covers, and the share of that span its
    child spans cover (kept images). Server: whether the spans of kept image k lie inside that
    image's client round trip (send start to reply end), and inside its
    ``session.reply_wait`` span.
    """
    runs = {s["image"]: s for s in client if s["name"] == "session.run"}
    covered: dict[int, int] = {}
    for s in client:
        if s["parent"] == runs.get(s["image"], {}).get("id"):
            covered[s["image"]] = covered.get(s["image"], 0) + s["end"] - s["start"]
    coverage = [covered.get(i, 0) / max(1, r["end"] - r["start"])
                for i, r in runs.items() if r.get("kept")]
    root_share = [(runs[im.index]["end"] - runs[im.index]["start"]) / im.latency_ns
                  for im in images if im.index in runs]

    kept = sorted(i for i, r in runs.items() if r.get("kept"))
    sends = {s["image"]: s for s in client if s["name"] == "session.send"}
    waits = {s["image"]: s for s in client if s["name"] == "session.reply_wait"}
    in_trip = in_wait = total = 0
    for s in server:
        if s["image"] < 0 or s["image"] >= len(kept):
            continue
        image = kept[s["image"]]
        send, wait = sends.get(image), waits.get(image)
        if send is None or wait is None:
            continue
        total += 1
        in_trip += send["start"] <= s["start"] and s["end"] <= wait["end"]
        in_wait += wait["start"] <= s["start"] and s["end"] <= wait["end"]
    return {"client_root_share_min": min(root_share, default=0.0),
            "client_coverage_median": median(coverage),
            "client_coverage_min": min(coverage) if coverage else 0.0,
            "server_spans": total,
            "server_spans_in_round_trip": in_trip,
            "server_spans_in_reply_wait": in_wait}


def run(sw, seed: int, seconds: float, trace: bool, paced: bool) -> Outcome:
    bench = Loopback(sw, seed, paced)
    try:
        return _traced(bench, seconds) if trace else _untraced(bench, seconds)
    finally:
        bench.close()
        bench.kernel.close()


def _setups(bench: Loopback, outcome: Outcome, tracer: Tracer | None = None) -> list:
    """Set up ``SETUP_REPS`` times, keeping the last server; the last set-up
    runs under ``tracer`` if one is given."""
    setups = []
    for rep in range(SETUP_REPS):
        if rep:
            bench.close()
        if tracer is not None and rep == SETUP_REPS - 1:
            from splitwire.pipeline import session as session_mod
            tracer.patch(session_mod, "random_fill", "tensor.random_fill")
        try:
            setups.append(bench.setup(outcome))
        finally:
            if tracer is not None:
                tracer.unpatch_all()
    return setups


def _untraced(bench: Loopback, seconds: float) -> Outcome:
    outcome = Outcome()
    setups = _setups(bench, outcome)
    images, machine = bench.timed(seconds)
    server_doc = bench.close()
    bench.check(images, server_doc, outcome)
    lat = _latency_ms(images)
    client_rss, server_rss = maxrss_mb(), server_doc["maxrss_mb"]
    kernel = bench.kernel
    outcome.end_to_end = {
        "norm_latency_p10_ms": _norm_latency_p10_ms(bench, images),
        "setup_s": median([kernel.scale(start, elapsed) for start, elapsed in setups]),
        "peak_rss_mb": client_rss + server_rss,
    }
    outcome.report = {"latency_p10_ms": p10(lat), "latency_p50_ms": median(lat),
                      "latency_p90_ms": p90(lat), "modelled_link_ms": bench.link_ms(),
                      "images_per_s": len(images) / (sum(im.latency_ns for im in images) / 1e9),
                      "speed_factor_median": median([kernel.factor_at(im.start_ns)
                                                     for im in images]),
                      "ref.kernel_ms": kernel.fast_ms(),
                      "setup_runs_s": [elapsed for _, elapsed in setups],
                      "client_peak_rss_mb": client_rss,
                      "server_peak_rss_mb": server_rss,
                      **bench.counts(images, machine, server_doc)}
    return outcome


def _traced(bench: Loopback, seconds: float) -> Outcome:
    """Half the run untraced, half traced; the difference is the overhead."""
    outcome = Outcome()
    setup_tracer = Tracer("client")
    _setups(bench, outcome, setup_tracer)
    plain, plain_machine = bench.timed(seconds / 2)
    plain_doc = bench.server.command("mark")
    bench.server.command("trace")
    tracer = Tracer("client")
    patch_client(tracer)
    try:
        traced, machine = bench.timed(seconds / 2, tracer)
    finally:
        tracer.unpatch_all()
    server_doc = bench.close()
    bench.check(plain, plain_doc, outcome)
    bench.check(traced, server_doc, outcome)

    client, server = tracer.spans, server_doc["spans"]
    by_index = {im.index: im for im in traced}
    for span in client:
        if span["name"] == "session.run":
            im = by_index[span["image"]]
            span["kept"] = im.log is not None and not im.log.records[0].filtered
    ms = {**p10_self_ms(client), **p10_self_ms(server),
          **p10_self_ms(setup_tracer.spans)}
    in_session = under(client, "session.run")
    counts = bench.counts(traced, machine, server_doc)
    q8_calls = sum(1 for s in client
                   if s["name"] == "codec.quantize8" and s["id"] in in_session)
    frame_sizes = [s["bytes"] for s in client
                   if s["name"] == "wire.encode" and s["id"] in in_session]
    plain_p10 = _norm_latency_p10_ms(bench, plain)
    traced_p10 = _norm_latency_p10_ms(bench, traced)
    outcome.per_layer = {
        **{f"{name}_ms": ms.get(name, 0.0) for name in _SPAN_METRICS},
        "codec.quantize8_calls_per_image": q8_calls / max(1, counts["kept"]),
        "wire.frame_bytes": median(frame_sizes),
        "ref.kernel_ms": bench.kernel.fast_ms(),
        "trace.overhead_ratio": traced_p10 / plain_p10 - 1.0,
        **{k: counts[k] for k in _COUNT_METRICS},
    }
    outcome.report = {
        "untraced_norm_latency_p10_ms": plain_p10,
        "traced_norm_latency_p10_ms": traced_p10,
        "untraced": bench.counts(plain, plain_machine, plain_doc),
        "traced": counts,
        "nesting": _nesting(traced, client, server),
        "self_time_table": (self_time_table(client) + self_time_table(server)
                            + self_time_table(setup_tracer.spans)),
    }
    outcome.spans = setup_tracer.spans + client + server
    return outcome
