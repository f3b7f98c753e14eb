"""Capture-to-output delay model for the four execution strategies.

Strategies:

* ``LC``   - local computing: the whole detector runs on the mobile device.
* ``PO``   - pure offloading: the JPEG input goes up, the server runs all.
* ``SC``   - split computing: head on device, quantized bottleneck up,
             tail on server.
* ``SCNF`` - split computing with the neural prefilter: dropped images pay
             only head plus filter cost; kept images continue as SC.

Delays are deterministic functions of the profile, channel and payload
sizes (uplink time is bytes over rate); there is no queueing or jitter.
The result-return downlink is not charged by default, matching the model
this reproduces, but ``ChannelModel.fixed_latency_s`` can add a constant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .errors import ArgumentError, NoCrossoverError, RangeError

__all__ = [
    "STRATEGIES",
    "ExecutionProfile",
    "ChannelModel",
    "PayloadSizes",
    "DelayBreakdown",
    "FilterOutcomeModel",
    "SweepRow",
    "transfer_time",
    "total_delay",
    "gain_vs_local",
    "gain_vs_offload",
    "sweep",
    "write_sweep_csv",
    "crossover_rate",
]

STRATEGIES = ("LC", "PO", "SC", "SCNF")


@dataclass(frozen=True)
class ExecutionProfile:
    """All compute-side timing constants, in seconds."""

    t_local: float
    t_edge_full: float
    t_head: float
    t_tail: float
    t_filter_extra: float = 0.0

    def __post_init__(self):
        for name in ("t_local", "t_edge_full", "t_head", "t_tail", "t_filter_extra"):
            if getattr(self, name) < 0:
                raise RangeError(f"{name} must be >= 0")
        if self.t_head > self.t_local:
            raise RangeError("t_head cannot exceed t_local")
        if self.t_tail > self.t_local:
            raise RangeError("t_tail cannot exceed t_local")


@dataclass(frozen=True)
class ChannelModel:
    rate_bps: float
    fixed_latency_s: float = 0.0

    def __post_init__(self):
        if self.rate_bps <= 0:
            raise RangeError(f"rate_bps must be > 0, got {self.rate_bps}")
        if self.fixed_latency_s < 0:
            raise RangeError("fixed_latency_s must be >= 0")


@dataclass(frozen=True)
class PayloadSizes:
    """Message byte totals for the JPEG input and the quantized bottleneck."""

    jpeg_bytes: int
    bottleneck_bytes_8: int
    bottleneck_bytes_16: int
    bottleneck_bytes_32: int

    def __post_init__(self):
        for name in ("jpeg_bytes", "bottleneck_bytes_8",
                     "bottleneck_bytes_16", "bottleneck_bytes_32"):
            if getattr(self, name) <= 0:
                raise RangeError(f"{name} must be > 0")
        if not (self.bottleneck_bytes_8 < self.bottleneck_bytes_16
                < self.bottleneck_bytes_32):
            raise RangeError("bottleneck byte sizes must increase with width")

    def bottleneck_bytes(self, width: int) -> int:
        try:
            return {8: self.bottleneck_bytes_8,
                    16: self.bottleneck_bytes_16,
                    32: self.bottleneck_bytes_32}[width]
        except KeyError:
            raise ArgumentError(f"width must be 8, 16 or 32, got {width}") from None


@dataclass(frozen=True)
class FilterOutcomeModel:
    """Probability that the prefilter drops an image."""

    p_drop: float

    def __post_init__(self):
        if not 0.0 <= self.p_drop <= 1.0:
            raise RangeError(f"p_drop must be in [0, 1], got {self.p_drop}")


@dataclass(frozen=True)
class DelayBreakdown:
    """Named components of one capture-to-output delay, in seconds."""

    strategy: str
    t_head: float
    t_uplink: float
    t_server: float
    t_filter: float

    @property
    def total(self) -> float:
        return self.t_head + self.t_uplink + self.t_server + self.t_filter

    def components(self) -> dict[str, float]:
        return {"t_head": self.t_head, "t_uplink": self.t_uplink,
                "t_server": self.t_server, "t_filter": self.t_filter}


def transfer_time(n_bytes: int, ch: ChannelModel) -> float:
    """Seconds to move ``n_bytes`` over the channel."""
    if n_bytes < 0:
        raise RangeError("byte count must be >= 0")
    return 8.0 * n_bytes / ch.rate_bps + ch.fixed_latency_s


def total_delay(strategy: str, prof: ExecutionProfile, ch: ChannelModel,
                sizes: PayloadSizes, width: int = 8,
                p_drop: float = 0.0) -> DelayBreakdown:
    """Capture-to-output delay breakdown for one strategy.

    ``p_drop`` only affects SCNF, where the uplink and tail components are
    weighted by the probability that the image survives the prefilter.
    """
    if strategy == "LC":
        return DelayBreakdown("LC", prof.t_local, 0.0, 0.0, 0.0)
    if strategy == "PO":
        return DelayBreakdown("PO", 0.0, transfer_time(sizes.jpeg_bytes, ch),
                              prof.t_edge_full, 0.0)
    if strategy == "SC":
        up = transfer_time(sizes.bottleneck_bytes(width), ch)
        return DelayBreakdown("SC", prof.t_head, up, prof.t_tail, 0.0)
    if strategy == "SCNF":
        FilterOutcomeModel(p_drop)  # range check
        keep = 1.0 - p_drop
        up = transfer_time(sizes.bottleneck_bytes(width), ch)
        return DelayBreakdown("SCNF", prof.t_head, keep * up,
                              keep * prof.t_tail, prof.t_filter_extra)
    raise ArgumentError(f"unknown strategy {strategy!r}; one of {STRATEGIES}")


def gain_vs_local(prof: ExecutionProfile, ch: ChannelModel, sizes: PayloadSizes,
                  width: int, strategy: str, p_drop: float = 0.0) -> float:
    base = total_delay("LC", prof, ch, sizes, width, p_drop).total
    return base / total_delay(strategy, prof, ch, sizes, width, p_drop).total


def gain_vs_offload(prof: ExecutionProfile, ch: ChannelModel, sizes: PayloadSizes,
                    width: int, strategy: str, p_drop: float = 0.0) -> float:
    base = total_delay("PO", prof, ch, sizes, width, p_drop).total
    return base / total_delay(strategy, prof, ch, sizes, width, p_drop).total


@dataclass(frozen=True)
class SweepRow:
    rate_bps: float
    strategy: str
    breakdown: DelayBreakdown
    gain_vs_local: float
    gain_vs_offload: float


def sweep(prof: ExecutionProfile, sizes: PayloadSizes, width: int,
          rates_bps: list[float], p_drop: float = 0.0,
          fixed_latency_s: float = 0.0) -> list[SweepRow]:
    """One row per (rate, strategy), rates required ascending."""
    if not rates_bps:
        raise ArgumentError("need at least one rate")
    if any(b <= a for a, b in zip(rates_bps, rates_bps[1:])):
        raise ArgumentError("rates must be strictly ascending")
    rows = []
    for rate in rates_bps:
        ch = ChannelModel(rate, fixed_latency_s)
        bds = {s: total_delay(s, prof, ch, sizes, width, p_drop) for s in STRATEGIES}
        lc, po = bds["LC"].total, bds["PO"].total
        rows.extend(SweepRow(rate, s, bd, lc / bd.total, po / bd.total)
                    for s, bd in bds.items())
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rate_mbps", "strategy", "t_head", "t_uplink",
                         "t_server", "t_filter", "total_s",
                         "gain_vs_local", "gain_vs_offload"])
        for row in rows:
            bd = row.breakdown
            writer.writerow([
                repr(row.rate_bps / 1e6), row.strategy,
                repr(bd.t_head), repr(bd.t_uplink), repr(bd.t_server),
                repr(bd.t_filter), repr(bd.total),
                repr(row.gain_vs_local), repr(row.gain_vs_offload),
            ])


def crossover_rate(prof: ExecutionProfile, sizes: PayloadSizes, width: int,
                   strategy_a: str, strategy_b: str,
                   bracket: tuple[float, float], p_drop: float = 0.0,
                   fixed_latency_s: float = 0.0) -> float:
    """Rate where two strategies have equal total delay, in closed form.

    Every strategy's delay is affine in 1/rate, so their difference is a
    line in 1/rate and one secant step between the bracket endpoints lands
    on its root. Raises NoCrossoverError when the delay difference has the
    same sign at both bracket endpoints.
    """
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ArgumentError(f"bad bracket {bracket}")

    def diff(rate: float) -> float:
        ch = ChannelModel(rate, fixed_latency_s)
        ta = total_delay(strategy_a, prof, ch, sizes, width, p_drop).total
        tb = total_delay(strategy_b, prof, ch, sizes, width, p_drop).total
        return ta - tb

    d_lo, d_hi = diff(lo), diff(hi)
    if d_lo == 0.0:
        return lo
    if d_hi == 0.0:
        return hi
    if (d_lo > 0) == (d_hi > 0):
        raise NoCrossoverError(
            f"no {strategy_a}/{strategy_b} crossover in "
            f"[{lo / 1e6:g}, {hi / 1e6:g}] Mbps"
        )
    return 1.0 / (1.0 / lo + d_lo * (1.0 / hi - 1.0 / lo) / (d_lo - d_hi))
