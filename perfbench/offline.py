"""offline-cli workload: every documented CLI command, in-process.

Each round calls ``splitwire.cli.main`` once per command below, in order,
on fixed inputs; rounds repeat in a closed loop. The reference-shape tensor
file, the filter-metrics seed and the simulated client's seed come from
the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
import time

from common import MachineClock, OUT_DIR, Outcome, ReferenceKernel, maxrss_mb, median, p10, p90
from tracing import Tracer, p10_self_ms, patch_client, self_time_table, under

REF_DIMS = (3, 223, 265)
SETUP_REPS = 7
AUC_TARGET, AUC_WINDOW = 0.919, 0.01      # acceptance criterion 9
ORACLE_LOW, ORACLE_HIGH = 1 - 1e-9, 1.05  # acceptance criterion 5
ROUNDTRIP_SLACK = 1e-6                    # acceptance criterion 3

# command group -> metric reported per round (codec sums its three calls)
GROUPS = ("sweep", "netspec", "codec", "distill", "filter_metrics", "client_sim")

# Per-layer metrics read as the 10th percentile self time of the span of that name.
_SPAN_METRICS = (
    "tensor.random_fill", "codec.quantize8", "codec.quantize16", "codec.dequantize",
    "wire.encode", "wire.decode", "filtergate.gate_metrics", "filtergate.sample_scores",
    "latency.sweep", "latency.write_sweep_csv", "distill.train_toy",
    "distill.eckart_young_bound", "netspec.trace",
)
METRICS = frozenset({
    *(f"{name}_ms" for name in _SPAN_METRICS), *(f"cli.{g}_ms" for g in GROUPS),
    "codec.quantize8_calls_per_image", "wire.frame_bytes", "session.drop_ratio",
    "ref.kernel_ms", "trace.overhead_ratio",
})


def _field(text: str, name: str) -> str | None:
    m = re.search(rf"^{re.escape(name)}: (\S+)", text, re.MULTILINE)
    return m.group(1) if m else None


class OfflineCli:
    def __init__(self, sw, seed: int):
        self.sw = sw
        self.seed = seed
        self.work = OUT_DIR / "offline-cli"
        self.cfg = None
        self.kernel = ReferenceKernel()

    def path(self, name: str) -> str:
        return str(self.work / name)

    def commands(self) -> list[tuple[str, list[str], object]]:
        """(group, argv, check) for one round; check(stdout) -> error or None."""
        sizes = self.cfg.sizes
        return [
            ("sweep", ["sweep", "--rates", "0.5..10:0.5", "--width", "8",
                       "--out", self.path("sweep.csv")], self._check_sweep),
            ("netspec", ["netspec", "--spec", "student_l1", "--input", "3x874x1044"],
             self._check_netspec),
            ("codec", ["codec", "quantize", "--in", self.path("tensor.bin"),
                       "--out", self.path("q8.bin"), "--width", "8"],
             lambda out: self._check_quantize(out, sizes.bottleneck_bytes_8, True)),
            ("codec", ["codec", "quantize", "--in", self.path("tensor.bin"),
                       "--out", self.path("q16.bin"), "--width", "16"],
             lambda out: self._check_quantize(out, sizes.bottleneck_bytes_16, False)),
            ("codec", ["codec", "dequantize", "--in", self.path("q8.bin"),
                       "--out", self.path("restored.bin")], self._check_dequantize),
            ("distill", ["distill", "--fixture", "rank3_bneck1",
                         "--out", self.path("history.csv")], self._check_distill),
            ("filter_metrics", ["filter-metrics", "--n", "100000", "--seed", str(self.seed)],
             self._check_filter),
            ("client_sim", ["client", "--mode", "simulated", "--n", "100",
                            "--shape", "3x64x64", "--seed", str(self.seed),
                            "--out", self.path("session.csv")], self._check_client),
        ]

    # --- output checks -----------------------------------------------------

    def _check_sweep(self, out: str) -> str | None:
        with open(self.path("sweep.csv"), newline="", encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        return None if rows == 80 else f"sweep CSV has {rows} rows, expected 80"

    @staticmethod
    def _check_netspec(out: str) -> str | None:
        got = _field(out, "bottleneck")
        return None if got == "3x223x265" else f"netspec bottleneck {got}"

    @staticmethod
    def _check_quantize(out: str, total: int, affine: bool) -> str | None:
        got = _field(out, "total_bytes")
        if got != str(total):
            return f"codec total_bytes {got}, expected {total}"
        if affine:
            err = float(_field(out, "max_roundtrip_error"))
            scale = float(_field(out, "scale"))
            if err > scale / 2 + ROUNDTRIP_SLACK:
                return f"codec round trip error {err} above scale/2 = {scale / 2}"
        return None

    @staticmethod
    def _check_dequantize(out: str) -> str | None:
        want = f"dequantized 8-bit tensor {'x'.join(map(str, REF_DIMS))}"
        return None if out.startswith(want) else f"dequantize printed {out[:60]!r}"

    @staticmethod
    def _check_distill(out: str) -> str | None:
        final, bound = float(_field(out, "final_loss")), float(_field(out, "oracle_bound"))
        if bound * ORACLE_LOW <= final <= bound * ORACLE_HIGH:
            return None
        return f"distill final_loss {final} outside the oracle window of {bound}"

    @staticmethod
    def _check_filter(out: str) -> str | None:
        auc = float(_field(out, "empirical_auc"))
        ok = abs(auc - AUC_TARGET) <= AUC_WINDOW
        return None if ok else f"empirical_auc {auc} outside {AUC_TARGET} +/- {AUC_WINDOW}"

    @staticmethod
    def _check_client(out: str) -> str | None:
        return None if out.startswith("100 images") else f"client printed {out[:60]!r}"

    # --- running -------------------------------------------------------------

    def setup(self, outcome: Outcome) -> tuple[int, float]:
        """Config load, input file generation and one warm-up round: when it
        started (ns) and how long it took (s)."""
        from splitwire.pipeline import wire
        for _ in range(3):
            self.kernel.sample()
        start_ns = time.perf_counter_ns()
        start = time.perf_counter()
        self.cfg = self.sw.load_reference_config()
        self.work.mkdir(parents=True, exist_ok=True)
        tensor = self.sw.random_fill(REF_DIMS, self.seed, -1.0, 1.0)
        wire.save_message(self.path("tensor.bin"), wire.tensor_to_message(tensor))
        self.round(0, outcome)
        return start_ns, time.perf_counter() - start

    def round(self, index: int, outcome: Outcome,
              tracer: Tracer | None = None) -> dict[str, float]:
        """Run every command once; ms per command group and the start (ns)."""
        times = dict.fromkeys(GROUPS, 0.0)
        times["start_ns"] = time.perf_counter_ns()
        for group, argv, check in self.commands():
            if self.kernel.due():
                self.kernel.sample()
            main = self.sw.cli.main
            if tracer is not None:
                tracer.image = index
                main = tracer.wrap(f"cli.{argv[0]}", main)
            outcome.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except Exception as exc:  # a traceback is a failed command, not a crash
                code = f"{type(exc).__name__}: {exc}"
            times[group] += (time.perf_counter_ns() - start) / 1e6
            if code != 0:
                outcome.fail(f"round {index} {argv[0]}: exit {code} {err.getvalue()[:200]}")
                continue
            try:
                problem = check(out.getvalue())
            except (OSError, TypeError, ValueError) as exc:
                problem = f"unreadable output: {exc}"
            if problem:
                outcome.fail(f"round {index} {argv[0]}: {problem}")
        return times

    def timed(self, seconds: float, outcome: Outcome, tracer: Tracer | None = None):
        rounds = []
        clock = MachineClock(self.kernel)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            rounds.append(self.round(len(rounds), outcome, tracer))
        return rounds, clock.finish()


def _round_ms(rounds: list[dict[str, float]]) -> list[float]:
    return [sum(r[g] for g in GROUPS) for r in rounds]


def _norm_round_p10_ms(kernel, rounds: list[dict[str, float]]) -> float:
    """A round's time at the reference speed, summed from the 10th
    percentile of each command group; steadier than the round's own p10,
    which rests on a few rounds."""
    return sum(p10([kernel.scale(r["start_ns"], r[g]) for r in rounds]) for g in GROUPS)


def _group_p10(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {f"cli.{g}_ms": p10([r[g] for r in rounds]) for g in GROUPS}


def run(sw, seed: int, seconds: float, trace: bool) -> Outcome:
    import splitwire.cli  # noqa: F401  (binds sw.cli)
    bench = OfflineCli(sw, seed)
    try:
        return _traced(bench, seconds) if trace else _untraced(bench, seconds)
    finally:
        bench.kernel.close()


def _untraced(bench: OfflineCli, seconds: float) -> Outcome:
    outcome = Outcome()
    setups = [bench.setup(outcome) for _ in range(SETUP_REPS)]
    rounds, machine = bench.timed(seconds, outcome)
    lat = _round_ms(rounds)
    kernel = bench.kernel
    outcome.end_to_end = {
        "norm_latency_p10_ms": _norm_round_p10_ms(kernel, rounds),
        "setup_s": median([kernel.scale(start, elapsed) for start, elapsed in setups]),
        "peak_rss_mb": maxrss_mb(),
    }
    outcome.report = {"latency_p10_ms": p10(lat), "latency_p50_ms": median(lat),
                      "latency_p90_ms": p90(lat),
                      "rounds_per_s": len(rounds) / (sum(lat) / 1e3),
                      "speed_factor_median": median([kernel.factor_at(r["start_ns"])
                                                     for r in rounds]),
                      "ref.kernel_ms": kernel.fast_ms(),
                      "setup_runs_s": [elapsed for _, elapsed in setups],
                      "rounds": len(rounds),
                      **_group_p10(rounds), **machine}
    return outcome


def _traced(bench: OfflineCli, seconds: float) -> Outcome:
    """Half the run untraced, half traced; the difference is the overhead."""
    outcome = Outcome()
    for _ in range(SETUP_REPS):
        bench.setup(outcome)
    plain, _ = bench.timed(seconds / 2, outcome)
    tracer = Tracer("client")
    _patch_offline(tracer)
    try:
        traced_rounds, machine = bench.timed(seconds / 2, outcome, tracer)
    finally:
        tracer.unpatch_all()

    spans = tracer.spans
    in_session = under(spans, "session.run")
    # codec and wire times come from the codec commands on the reference
    # shape; the simulated client's small frames give the per-image counts
    ms = p10_self_ms([s for s in spans if s["id"] not in in_session])
    runs = [s for s in spans if s["name"] == "session.run"]
    images = sum(s["images"] for s in runs)
    dropped = sum(s["dropped"] for s in runs)
    q8_calls = sum(1 for s in spans if s["name"] == "codec.quantize8" and s["id"] in in_session)
    frame_sizes = [s["bytes"] for s in spans
                   if s["name"] == "wire.encode" and s["id"] in in_session]
    plain_p10 = _norm_round_p10_ms(bench.kernel, plain)
    traced_p10 = _norm_round_p10_ms(bench.kernel, traced_rounds)
    outcome.per_layer = {
        **{f"{name}_ms": ms.get(name, 0.0) for name in _SPAN_METRICS},
        "codec.quantize8_calls_per_image": q8_calls / max(1, images - dropped),
        "wire.frame_bytes": median(frame_sizes),
        "session.drop_ratio": dropped / max(1, images),
        "ref.kernel_ms": bench.kernel.fast_ms(),
        "trace.overhead_ratio": traced_p10 / plain_p10 - 1.0,
        **_group_p10(plain),
    }
    outcome.report = {"untraced_norm_round_p10_ms": plain_p10,
                      "traced_norm_round_p10_ms": traced_p10,
                      "rounds_untraced": len(plain), "rounds_traced": len(traced_rounds),
                      "self_time_table": self_time_table(spans), **machine}
    outcome.spans = spans
    return outcome


def _patch_offline(tracer: Tracer) -> None:
    """Wrap the public functions the CLI commands reach.

    The CLI calls codec, latency, netspec and distill through their modules
    and ``gate_metrics``/``run_session`` through names bound at import.
    """
    from splitwire import cli, codec, distill, latency, netspec
    from splitwire.pipeline import wire

    patch_client(tracer)
    for name in ("quantize8", "quantize16", "dequantize"):
        tracer.patch(codec, name, f"codec.{name}")
    tracer.patch(wire, "encode_message", "wire.encode",
                 attrs=lambda frame: {"bytes": len(frame)})
    tracer.patch(wire, "decode_message", "wire.decode")
    tracer.patch(latency, "sweep", "latency.sweep")
    tracer.patch(latency, "write_sweep_csv", "latency.write_sweep_csv")
    tracer.patch(netspec, "trace", "netspec.trace")
    tracer.patch(distill, "train_toy", "distill.train_toy")
    tracer.patch(distill, "eckart_young_bound", "distill.eckart_young_bound")
    tracer.patch(cli, "gate_metrics", "filtergate.gate_metrics")
    tracer.patch(cli, "run_session", "session.run", attrs=lambda log: {
        "images": len(log.records), "dropped": sum(r.filtered for r in log.records)})
