"""Shared helpers: locating the package, machine record, statistics."""

from __future__ import annotations

import bisect
import hashlib
import mmap
import os
import platform
import resource
import socket
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


class MissingProgram(RuntimeError):
    """The checkout does not hold the splitwire sources."""


def import_splitwire():
    """Put the checkout's ``src`` first on the path and import the package."""
    if not (SRC / "splitwire" / "__init__.py").is_file():
        raise MissingProgram(f"no splitwire package under {SRC}")
    sys.path.insert(0, str(SRC))
    import splitwire
    return splitwire


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_stat_cpu() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat (read only), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:]] if fields and fields[0] == "cpu" else None


class MachineClock:
    """Wall, own CPU and machine steal time over one measured phase.

    The reference kernel's samples taken during the phase are taken out of
    this process's CPU time.
    """

    def __init__(self, kernel: "ReferenceKernel"):
        self.kernel = kernel
        self.samples0 = len(kernel.samples)
        self.wall0 = time.perf_counter()
        self.cpu0 = cpu_seconds()
        self.stat0 = _proc_stat_cpu()

    def finish(self) -> dict:
        wall = time.perf_counter() - self.wall0
        kernel_s = sum(self.kernel.samples[self.samples0:]) / 1e9
        stat1 = _proc_stat_cpu()
        steal = None
        if self.stat0 and stat1 and len(stat1) > 7:
            delta = [b - a for a, b in zip(self.stat0, stat1)]
            total = sum(delta[:8])  # user..steal; guest time is inside user
            steal = delta[7] / total if total > 0 else 0.0
        return {"wall_s": wall,
                "client_cpu_s": cpu_seconds() - self.cpu0 - kernel_s,
                "kernel_s": kernel_s,
                "steal_share": steal}


def machine_record() -> dict:
    import numpy
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p10(values) -> float:
    """10th percentile (exclusive method); the minimum below ten values."""
    if len(values) < 10:
        return min(values, default=0.0)
    return statistics.quantiles(values, n=10)[0]


def p90(values) -> float:
    """90th percentile (exclusive method); the maximum below ten values."""
    if len(values) < 10:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10)[-1]


class ReferenceKernel:
    """A fixed piece of work, independent of splitwire, that gauges the
    machine's current speed.

    On a shared virtual machine the time of the same work drifts by tens of
    percent within seconds and over minutes, for the program and for
    anything else alike. The kernel holds the mix of costs on the image
    path: it faults in fresh anonymous pages, makes numpy passes over a
    reference-size float32 array, hashes, round-trips a socket pair and runs
    a Python loop. It is sampled between operations through a run; an
    operation's time is scaled by ``REF_NS`` over the median kernel time in
    the ``WINDOW_S`` around it, which reads it as on a machine running at
    the reference speed.
    """

    REF_NS = 4_000_000   # the kernel's nominal time at the reference speed
    MIN_GAP_S = 0.1      # sample at most this often
    WINDOW_S = 1.0       # the samples that gauge the speed at one instant
    _ELEMENTS = 177285   # the reference bottleneck
    _PAGES_BYTES = 1 << 20  # below the 2 MiB huge-page size: one fault per page

    def __init__(self):
        import numpy as np
        self._np = np
        self._base = (np.arange(self._ELEMENTS) % 251 / 125.0 - 1.0).astype(np.float32)
        self._a, self._b = socket.socketpair()
        self._last = float("-inf")
        self.samples: list[int] = []
        self.at: list[int] = []  # perf_counter_ns when each sample ended

    def close(self) -> None:
        self._a.close()
        self._b.close()

    def sample(self) -> None:
        np = self._np
        start = time.perf_counter_ns()
        for _ in range(3):
            pages = mmap.mmap(-1, self._PAGES_BYTES)
            view = np.frombuffer(pages, dtype=np.uint8)
            view[::mmap.PAGESIZE] = 1
            del view
            pages.close()
        levels = np.clip(np.rint(self._base.astype(np.float64) / 0.0079) + 128, 0, 255)
        restored = ((levels.astype(np.uint8) - 128.0) * 0.0079).astype(np.float32)
        digest = hashlib.sha256(restored.tobytes()).digest()
        for _ in range(4):
            self._a.sendall(digest)
            self._b.recv(64)
        acc = 0
        for i in range(2000):
            acc += i * i
        end = time.perf_counter_ns()
        self.samples.append(end - start)
        self.at.append(end)
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.MIN_GAP_S

    def fast_ms(self) -> float:
        return p10(self.samples) / 1e6

    def factor_at(self, t_ns: int) -> float:
        """Reference time over the kernel's time around ``t_ns``: below 1
        while the machine runs slow."""
        half = int(self.WINDOW_S * 5e8)
        lo = bisect.bisect_left(self.at, t_ns - half)
        hi = bisect.bisect_right(self.at, t_ns + half)
        if lo == hi:  # no sample in the window: take the nearest one
            lo = min(max(0, lo - 1), len(self.at) - 1)
            if lo + 1 < len(self.at) and self.at[lo + 1] - t_ns < t_ns - self.at[lo]:
                lo += 1
            hi = lo + 1
        return self.REF_NS / statistics.median(self.samples[lo:hi])

    def scale(self, start_ns: int, elapsed: float, link: float = 0.0) -> float:
        """``elapsed`` (any unit) of an operation that started at ``start_ns``,
        its part beyond the modelled ``link`` time scaled to the reference
        speed."""
        return link + (elapsed - link) * self.factor_at(start_ns)


@dataclass
class Outcome:
    """What one workload run measured and which of its operations failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failures))

    def fail(self, what: str) -> None:
        self.failures.append(what)
