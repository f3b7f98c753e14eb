import pytest

from splitwire.config import load_reference_config
from splitwire.errors import ArgumentError, NoCrossoverError, RangeError
from splitwire.latency import (
    STRATEGIES,
    ChannelModel,
    DelayBreakdown,
    ExecutionProfile,
    PayloadSizes,
    crossover_rate,
    sweep,
    total_delay,
    transfer_time,
    write_sweep_csv,
)

# t_head + t_tail exceeds t_edge_full, so offloading wins once the channel
# is fast enough and an SC/PO crossover exists.
PROF = ExecutionProfile(t_local=2.25, t_edge_full=0.1, t_head=0.12,
                        t_tail=0.05, t_filter_extra=0.005)
SIZES = PayloadSizes(jpeg_bytes=312500, bottleneck_bytes_8=177320,
                     bottleneck_bytes_16=354605, bottleneck_bytes_32=709175)
CH5 = ChannelModel(5e6)


@pytest.fixture(scope="module")
def ref():
    return load_reference_config()


def test_transfer_time_five_mbps():
    assert transfer_time(312500, CH5) == 0.5


def test_transfer_time_zero_bytes_is_fixed_latency():
    ch = ChannelModel(1e6, fixed_latency_s=0.02)
    assert transfer_time(0, ch) == 0.02


def test_transfer_time_halves_when_rate_doubles():
    t1 = transfer_time(10_000, ChannelModel(2e6))
    t2 = transfer_time(10_000, ChannelModel(4e6))
    assert t2 == t1 / 2


def test_transfer_time_rejects_negative_bytes():
    with pytest.raises(RangeError):
        transfer_time(-1, CH5)


def test_local_computing_is_profile_passthrough(ref):
    bd = total_delay("LC", ref.profile, CH5, ref.sizes)
    assert bd.total == 2.25


def test_pure_offloading_sums_uplink_and_server():
    prof = ExecutionProfile(t_local=2.25, t_edge_full=0.2, t_head=0.12, t_tail=0.05)
    bd = total_delay("PO", prof, CH5, SIZES)
    assert bd.total == pytest.approx(0.7, abs=1e-12)
    assert bd.t_uplink == 0.5
    assert bd.t_server == 0.2


def test_split_computing_components():
    bd = total_delay("SC", PROF, CH5, SIZES, width=8)
    assert bd.t_head == 0.12
    assert bd.t_server == 0.05
    assert bd.t_uplink == transfer_time(177320, CH5)
    assert bd.t_filter == 0.0


def test_scnf_all_dropped_pays_head_and_filter_only():
    bd = total_delay("SCNF", PROF, CH5, SIZES, p_drop=1.0)
    assert bd.total == PROF.t_head + PROF.t_filter_extra
    assert bd.t_uplink == 0.0
    assert bd.t_server == 0.0


def test_scnf_zero_drop_equals_sc_plus_filter():
    scnf = total_delay("SCNF", PROF, CH5, SIZES, p_drop=0.0)
    sc = total_delay("SC", PROF, CH5, SIZES)
    assert scnf.total == pytest.approx(sc.total + PROF.t_filter_extra, rel=1e-12)


def test_unknown_strategy_rejected():
    with pytest.raises(ArgumentError):
        total_delay("CLOUD", PROF, CH5, SIZES)


def test_p_drop_out_of_range_rejected():
    with pytest.raises(RangeError):
        total_delay("SCNF", PROF, CH5, SIZES, p_drop=1.5)


def test_breakdown_total_is_exact_component_sum():
    for strategy in STRATEGIES:
        bd = total_delay(strategy, PROF, CH5, SIZES, p_drop=0.3)
        assert bd.total == bd.t_head + bd.t_uplink + bd.t_server + bd.t_filter
        assert bd.total == sum(bd.components().values())


def test_gain_vs_local_of_lc_is_one():
    rows = sweep(PROF, SIZES, 8, [1e6, 5e6])
    assert [r.gain_vs_local for r in rows if r.strategy == "LC"] == [1.0, 1.0]


def sc_gain_vs_offload(prof, rate):
    return next(r.gain_vs_offload for r in sweep(prof, SIZES, 8, [rate])
                if r.strategy == "SC")


def test_gain_vs_offload_low_rate_limit():
    # uplink-dominated regime: the ratio tends to jpeg/bottleneck bytes
    g = sc_gain_vs_offload(PROF, 1e3)
    assert g == pytest.approx(SIZES.jpeg_bytes / SIZES.bottleneck_bytes_8, rel=5e-3)


def test_gain_algebra_with_zero_compute_head_tail():
    prof = ExecutionProfile(t_local=1.0, t_edge_full=0.1, t_head=0.0, t_tail=0.0)
    for rate in (1e5, 1e6, 1e7):
        g = sc_gain_vs_offload(prof, rate)
        assert g >= 1.0  # t_tail <= t_edge_full and smaller payload


def test_sweep_row_count_and_order():
    rates = [r * 1e6 for r in range(1, 11)]
    rows = sweep(PROF, SIZES, 8, rates)
    assert len(rows) == 40
    assert [r.strategy for r in rows[:4]] == list(STRATEGIES)
    assert rows[0].rate_bps == 1e6 and rows[-1].rate_bps == 1e7


def test_sweep_gain_vs_local_sc_strictly_increasing():
    rates = [r * 1e6 for r in range(1, 11)]
    rows = [r for r in sweep(PROF, SIZES, 8, rates) if r.strategy == "SC"]
    gains = [r.gain_vs_local for r in rows]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_sweep_gain_vs_offload_sc_strictly_decreasing():
    assert PROF.t_head + PROF.t_tail > PROF.t_edge_full
    rates = [r * 1e6 for r in range(1, 11)]
    rows = [r for r in sweep(PROF, SIZES, 8, rates) if r.strategy == "SC"]
    gains = [r.gain_vs_offload for r in rows]
    assert all(b < a for a, b in zip(gains, gains[1:]))


def test_sweep_rejects_empty_or_unsorted_rates():
    with pytest.raises(ArgumentError):
        sweep(PROF, SIZES, 8, [])
    with pytest.raises(ArgumentError):
        sweep(PROF, SIZES, 8, [2e6, 1e6])


def test_sweep_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep(PROF, SIZES, 8, [1e6, 2e6]), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("rate_mbps,strategy,t_head,t_uplink,t_server,t_filter,"
                        "total_s,gain_vs_local,gain_vs_offload")
    assert len(lines) == 9


def test_sc_total_strictly_decreasing_and_convex_in_rate():
    rates = [r * 5e5 for r in range(1, 30)]
    totals = [total_delay("SC", PROF, ChannelModel(r), SIZES).total for r in rates]
    diffs = [b - a for a, b in zip(totals, totals[1:])]
    assert all(d < 0 for d in diffs)
    assert all(b > a for a, b in zip(diffs, diffs[1:]))  # second difference > 0


def test_scnf_not_worse_than_sc_when_filter_pays_for_itself():
    for p_drop in (0.1, 0.4, 0.9):
        ch = ChannelModel(3e6)
        sc = total_delay("SC", PROF, ch, SIZES).total
        scnf = total_delay("SCNF", PROF, ch, SIZES, p_drop=p_drop).total
        saved = p_drop * (transfer_time(SIZES.bottleneck_bytes_8, ch) + PROF.t_tail)
        if PROF.t_filter_extra < saved:
            assert scnf <= sc


def closed_form_po_sc_crossover(prof, sizes):
    num = 8.0 * (sizes.jpeg_bytes - sizes.bottleneck_bytes_8)
    den = prof.t_head + prof.t_tail - prof.t_edge_full
    return num / den


def test_crossover_matches_closed_form():
    rate = crossover_rate(PROF, SIZES, 8, "SC", "PO", (1e5, 1e8))
    assert rate == pytest.approx(closed_form_po_sc_crossover(PROF, SIZES), rel=1e-3)


def closed_form_po_scnf_crossover(prof, sizes, p_drop, fixed_latency_s):
    keep = 1.0 - p_drop
    num = 8.0 * (sizes.jpeg_bytes - keep * sizes.bottleneck_bytes_8)
    den = (prof.t_head + prof.t_filter_extra + keep * (prof.t_tail + fixed_latency_s)
           - prof.t_edge_full - fixed_latency_s)
    return num / den


def test_crossover_is_exact_for_affine_delays():
    rate = crossover_rate(PROF, SIZES, 8, "SC", "PO", (1e5, 1e8))
    assert rate == pytest.approx(closed_form_po_sc_crossover(PROF, SIZES), rel=1e-12)
    rate = crossover_rate(PROF, SIZES, 8, "SCNF", "PO", (1e4, 1e9), p_drop=0.3,
                          fixed_latency_s=0.05)
    want = closed_form_po_scnf_crossover(PROF, SIZES, 0.3, 0.05)
    assert rate == pytest.approx(want, rel=1e-12)


def test_crossover_reference_profile_near_eight_mbps(ref):
    rate = crossover_rate(ref.profile, ref.sizes, 8, "SC", "PO", (1e6, 2e7))
    assert 7e6 <= rate <= 9e6
    assert rate == pytest.approx(closed_form_po_sc_crossover(ref.profile, ref.sizes),
                                 rel=1e-3)


def test_crossover_requires_sign_change():
    with pytest.raises(NoCrossoverError):
        crossover_rate(PROF, SIZES, 8, "SC", "PO", (1e3, 1e4))


def test_profile_invariants():
    with pytest.raises(RangeError):
        ExecutionProfile(t_local=1.0, t_edge_full=0.1, t_head=1.5, t_tail=0.1)
    with pytest.raises(RangeError):
        ExecutionProfile(t_local=1.0, t_edge_full=0.1, t_head=0.1, t_tail=-0.1)


def test_channel_invariants():
    with pytest.raises(RangeError):
        ChannelModel(0.0)
    with pytest.raises(RangeError):
        ChannelModel(1e6, fixed_latency_s=-1.0)


@pytest.mark.parametrize("make", [
    lambda v: ChannelModel(v),
    lambda v: ChannelModel(1e6, fixed_latency_s=v),
    lambda v: ExecutionProfile(t_local=v, t_edge_full=0.1, t_head=0.1, t_tail=0.1),
    lambda v: ExecutionProfile(t_local=1.0, t_edge_full=v, t_head=0.1, t_tail=0.1),
    lambda v: ExecutionProfile(t_local=1.0, t_edge_full=0.1, t_head=v, t_tail=0.1),
    lambda v: ExecutionProfile(t_local=1.0, t_edge_full=0.1, t_head=0.1, t_tail=v),
    lambda v: ExecutionProfile(t_local=1.0, t_edge_full=0.1, t_head=0.1, t_tail=0.1,
                               t_filter_extra=v),
], ids=["rate_bps", "fixed_latency_s", "t_local", "t_edge_full", "t_head", "t_tail",
        "t_filter_extra"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_channel_or_profile_value_is_rejected(make, value):
    with pytest.raises(RangeError, match="must be finite"):
        make(value)


def test_payload_sizes_invariants():
    with pytest.raises(RangeError):
        PayloadSizes(0, 1, 2, 4)
    with pytest.raises(RangeError):
        PayloadSizes(100, 4, 2, 1)
    with pytest.raises(ArgumentError):
        SIZES.bottleneck_bytes(12)


def test_filter_outcome_model_range():
    total_delay("SCNF", PROF, CH5, SIZES, p_drop=0.0)
    total_delay("SCNF", PROF, CH5, SIZES, p_drop=1.0)
    with pytest.raises(RangeError, match=r"p_drop must be in \[0, 1\], got -0.01"):
        total_delay("SCNF", PROF, CH5, SIZES, p_drop=-0.01)


def test_delay_breakdown_is_plain_data():
    bd = DelayBreakdown("SC", 0.1, 0.2, 0.3, 0.0)
    assert bd.total == pytest.approx(0.6, rel=1e-15)
