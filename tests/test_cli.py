import hashlib
import json
import os
import re
import resource
import select
import signal
import socket
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from splitwire import cli
from splitwire.cli import MAX_RATES, MAX_SAMPLES, _parse_rates_mbps, main
from splitwire.codec import dequantize, quantize8
from splitwire.config import (config_from_dict, load_config, load_reference_config,
                              reference_config_path)
from splitwire.errors import ArgumentError
from splitwire.pipeline.server import PipelineServer
from splitwire.pipeline.wire import (
    MsgType,
    WireMessage,
    load_message,
    save_message,
    tensor_to_message,
    wire_header_bytes,
)
from splitwire.tensor import Shape, random_fill


@pytest.fixture()
def ref_path():
    return reference_config_path()


@pytest.fixture()
def tensor_file(tmp_path):
    t = random_fill(Shape([3, 9, 9]), seed=1, lo=-1.0, hi=1.0)
    path = tmp_path / "tensor.bin"
    save_message(str(path), tensor_to_message(t))
    return str(path)


def run(args):
    return main(args)


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def write_config(tmp_path, ref_path, edit):
    """Path of a copy of the reference config with ``edit(doc)`` applied.
    json.dumps writes a float NaN or infinity as the NaN or Infinity that
    Python's json reads back."""
    doc = json.loads(Path(ref_path).read_text())
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# --- sweep ---------------------------------------------------------------------

def test_sweep_writes_80_rows(tmp_path, ref_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", ref_path, "--rates", "0.5..10:0.5",
                "--width", "8", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 81  # header + 20 rates x 4 strategies
    assert lines[0].startswith("rate_mbps,strategy,")


def test_sweep_rate_list_syntax(tmp_path, ref_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", ref_path, "--rates", "1,2,5",
                "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 13


def test_sweep_missing_config_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["sweep", "--config", str(tmp_path / "nope.json"),
                "--rates", "1,2", "--out", str(out)]) == 2


def test_sweep_invalid_width_exits_2(tmp_path, ref_path):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--config", ref_path, "--rates", "1,2",
             "--width", "12", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_sweep_bad_rate_text_exits_2(tmp_path, ref_path):
    assert run(["sweep", "--config", ref_path, "--rates", "5..1:1",
                "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("rates", ["abc", "1..x:1", "nan", "1,inf"])
def test_sweep_unparsable_or_non_finite_rate_exits_2(tmp_path, ref_path, capsys, rates):
    assert run(["sweep", "--config", ref_path, "--rates", rates,
                "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("rates", ["0.5..10:1e-9", "1..5:1e-300", "1e-320", "1e308",
                                   "1e-320,1", "1,1e303"])
def test_sweep_rates_too_many_or_not_finite_exit_2(tmp_path, ref_path, capsys, rates):
    # "0.5..10:1e-9" once built a list of 9.5e9 floats; "1e-320" wrote inf and
    # nan into the PO row; "1e308" exited 3 on an infinite rate_bps
    out = tmp_path / "x.csv"
    assert run(["sweep", "--config", ref_path, "--rates", rates, "--out", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_rate_range_is_capped_at_max_rates():
    assert len(_parse_rates_mbps(f"1..{MAX_RATES}:1")) == MAX_RATES
    with pytest.raises(ArgumentError, match="more than"):
        _parse_rates_mbps(f"1..{MAX_RATES + 1}:1")


def loop_rates(lo, hi, step):
    """The range as the loop that appended one rate at a time built it."""
    rates, k = [], 0
    while lo + k * step <= hi + 1e-9:
        rates.append(lo + k * step)
        k += 1
    return rates


@given(lo=st.floats(0.001, 100), step=st.floats(0.001, 10), k=st.integers(0, 300),
       nudge=st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, 1e-10, -1e-10, 0.5]))
@example(lo=0.1, step=0.1, k=29, nudge=0.0)
@example(lo=1.0, step=0.3, k=3, nudge=0.0)
def test_range_rates_are_the_loops_rates(lo, step, k, nudge):
    hi = lo + k * step + nudge * step
    if hi >= lo:
        text = f"{lo!r}..{hi!r}:{step!r}"
        assert _parse_rates_mbps(text) == loop_rates(lo, hi, step)


def test_sweep_with_a_zero_delay_exits_2(tmp_path, ref_path, capsys):
    # a free head and filter that drop every image make the SCNF delay 0, and
    # its gains divided by zero
    def free_head(doc):
        doc["profile"]["t_head"] = 0.0
        doc["profile"]["t_filter_extra"] = 0.0
    path = write_config(tmp_path, ref_path, free_head)
    out = tmp_path / "x.csv"
    assert run(["sweep", "--config", path, "--rates", "1,2", "--p-drop", "1",
                "--out", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not out.exists()


# SHA-256 of the `sweep` CSV on the reference config, from the range loop that
# appended one rate at a time
SWEEP_DIGESTS = {
    "0.5..10:0.5": "64f4e6e8337cfc1079bb29e9eaf81f01d632828d4881475b255bba56a09408b8",
    "1,2,5": "f821fa722baa17efb65e972a7b340bfbfa7cf591a89b6b190bd1757145581ec6",
    "0.1..3:0.1": "35f9dfc9bb21c538e806aecd41106893ce667562bee731692eb3db858a33bbc2",
    "1..2:0.3": "35ac8483b5c97d8aca0bf7c8a1e8fe6db3f33b364a705b81247ffc2ca01b75ac",
}


@pytest.mark.parametrize("rates", sorted(SWEEP_DIGESTS))
def test_sweep_csv_is_byte_identical(tmp_path, ref_path, rates):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", ref_path, "--rates", rates, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGESTS[rates]


# --- codec ----------------------------------------------------------------------

def test_codec_quantize_then_dequantize_bounds_error(tmp_path, tensor_file, capsys):
    q8 = tmp_path / "q8.bin"
    back = tmp_path / "back.bin"
    assert run(["codec", "quantize", "--in", tensor_file, "--out", str(q8),
                "--width", "8"]) == 0
    printed = capsys.readouterr().out
    assert "max_roundtrip_error" in printed
    assert run(["codec", "dequantize", "--in", str(q8), "--out", str(back)]) == 0

    orig = dequantize(load_message(tensor_file))
    restored = dequantize(load_message(str(back)))
    scale = quantize8(orig).scale
    err = max(abs(a - b) for a, b in zip(orig.ravel().tolist(), restored.ravel().tolist()))
    assert err <= scale / 2 + 1e-6


def test_codec_width8_file_size_is_numel_plus_header(tmp_path, tensor_file):
    q8 = tmp_path / "q8.bin"
    assert run(["codec", "quantize", "--in", tensor_file, "--out", str(q8),
                "--width", "8"]) == 0
    import os

    assert os.path.getsize(q8) == 3 * 9 * 9 + wire_header_bytes(3)


def test_codec_dequantize_jpeg_typed_file_exits_3(tmp_path):
    jpeg = tmp_path / "img.bin"
    save_message(str(jpeg), WireMessage(MsgType.JPEG_IMAGE, payload=b"stub"))
    assert run(["codec", "dequantize", "--in", str(jpeg),
                "--out", str(tmp_path / "out.bin")]) == 3


def test_codec_quantize_of_a_quantized_file_exits_3(tmp_path, tensor_file, capsys):
    q8 = str(tmp_path / "q8.bin")
    assert run(["codec", "quantize", "--in", tensor_file, "--out", q8]) == 0
    capsys.readouterr()
    assert run(["codec", "quantize", "--in", q8, "--out", str(tmp_path / "qq.bin")]) == 3
    assert capsys.readouterr().err == "error: expected FTENSOR32, got QTENSOR8\n"


@pytest.mark.parametrize("width", ["8", "16"])
def test_codec_quantize_nan_input_exits_3(tmp_path, capsys, width):
    nan_file = tmp_path / "nan.bin"
    vals = np.array([0.5, np.nan, -0.25, 1.0], dtype="<f4")
    save_message(str(nan_file), WireMessage(MsgType.FTENSOR32, (1, 2, 2), 1.0, 0,
                                            vals.tobytes()))
    assert run(["codec", "quantize", "--in", str(nan_file),
                "--out", str(tmp_path / "out.bin"), "--width", width]) == 3
    assert "NaN" in capsys.readouterr().err


def test_codec_quantize_underflowing_scale_exits_3(tmp_path, capsys):
    tiny = tmp_path / "tiny.bin"
    vals = np.array([0.0, 1e-45], dtype="<f4")
    save_message(str(tiny), WireMessage(MsgType.FTENSOR32, (2,), 1.0, 0, vals.tobytes()))
    assert run(["codec", "quantize", "--in", str(tiny),
                "--out", str(tmp_path / "out.bin"), "--width", "8"]) == 3
    assert "underflows" in capsys.readouterr().err


@pytest.mark.parametrize("msg_type, dtype", [(MsgType.QTENSOR16, "<f2"),
                                             (MsgType.FTENSOR32, "<f4")],
                         ids=["qtensor16", "ftensor32"])
def test_codec_dequantize_nan_input_exits_3(tmp_path, capsys, msg_type, dtype):
    nan_file = tmp_path / "nan.bin"
    vals = np.array([0.5, np.nan, -0.25, 1.0], dtype=dtype)
    save_message(str(nan_file), WireMessage(msg_type, (1, 2, 2), 1.0, 0, vals.tobytes()))
    assert run(["codec", "dequantize", "--in", str(nan_file),
                "--out", str(tmp_path / "out.bin")]) == 3
    assert "NaN" in capsys.readouterr().err


def test_codec_corrupt_input_exits_3(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"this is not a frame")
    assert run(["codec", "quantize", "--in", str(bad),
                "--out", str(tmp_path / "out.bin")]) == 3


# SHA-256 over, for width 8 then 16: the stdout of `codec quantize`, its output
# file, the stdout of `codec dequantize` on that file and its output file
CODEC_DIGESTS = {
    "mixed-sign": ([3, 9, 9], 1, -1.0, 1.0,
                   "a3c8eee0fd5f70c4e8d8b2355cc33e21c9d306d042da9876f26e8f6719d24cb9"),
    "sign-definite": ([4, 16, 16], 2, 0.5, 3.0,
                      "66f6393dbdc5bfc17b6bdb8344d717dd9e1d97978a64b3a797d841fbaf7cbf1e"),
    "beyond-binary16": ([2, 8, 8], 3, -1.0e5, 1.0e5,
                        "1ea8da9f47118719b6d6e3cd206aeef031d79f77fdf8e84ac46e68048ef31fbb"),
}


@pytest.mark.parametrize("case", sorted(CODEC_DIGESTS))
def test_codec_outputs_are_byte_identical(case, tmp_path, monkeypatch, capsys):
    dims, seed, lo, hi, digest = CODEC_DIGESTS[case]
    monkeypatch.chdir(tmp_path)
    save_message("tensor.bin", tensor_to_message(random_fill(Shape(dims), seed, lo, hi)))
    h = hashlib.sha256()
    for width in ("8", "16"):
        assert run(["codec", "quantize", "--in", "tensor.bin", "--out", f"q{width}.bin",
                    "--width", width]) == 0
        h.update(capsys.readouterr().out.encode())
        h.update(Path(f"q{width}.bin").read_bytes())
        assert run(["codec", "dequantize", "--in", f"q{width}.bin",
                    "--out", f"back{width}.bin"]) == 0
        h.update(capsys.readouterr().out.encode())
        h.update(Path(f"back{width}.bin").read_bytes())
    assert h.hexdigest() == digest


def test_codec_quantize_peak_memory_stays_near_the_tensor(tmp_path):
    # the round-trip error over whole arrays took three float64 temporaries
    # of 1.4 MB at the reference shape, a 5.3 MB peak at width 8
    save_message(str(tmp_path / "t.bin"),
                 tensor_to_message(random_fill(Shape([3, 223, 265]), 4, -1.0, 1.0)))
    args = ["codec", "quantize", "--in", str(tmp_path / "t.bin"),
            "--out", str(tmp_path / "q.bin"), "--width", "8"]
    assert run(args) == 0  # the first run imports what it needs
    tracemalloc.start()
    try:
        assert run(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# --- netspec ----------------------------------------------------------------------

def test_netspec_student_ratio_printed(capsys, ref_path):
    assert run(["netspec", "--config", ref_path, "--spec", "student_l1",
                "--input", "3x874x1044"]) == 0
    out = capsys.readouterr().out
    assert "bottleneck: 3x223x265" in out
    assert "bottleneck_ratio: 0.0648" in out


def test_netspec_neural_filter_output(capsys, ref_path):
    assert run(["netspec", "--config", ref_path, "--spec", "neural_filter",
                "--input", "64x219x261"]) == 0
    out = capsys.readouterr().out
    assert "output: 2" in out


def test_netspec_tiny_input_still_traces(capsys, ref_path):
    assert run(["netspec", "--config", ref_path, "--spec", "student_l1_column",
                "--input", "3x1x1"]) == 0
    assert "bottleneck" in capsys.readouterr().out


def test_netspec_shape_error_exits_3(tmp_path, capsys):
    doc = {"name": "wide", "layers": [{"kind": "relu"},
                                      {"kind": "conv", "oc": 4, "k": 9}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert run(["netspec", "--spec", str(path), "--input", "3x4x4"]) == 3
    assert "layer 1" in capsys.readouterr().err


def test_netspec_from_json_file(tmp_path, capsys):
    doc = {"name": "mini", "layers": [{"kind": "conv", "oc": 4, "k": 3, "p": 1,
                                       "bottleneck": True}]}
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    assert run(["netspec", "--spec", str(path), "--input", "3x8x8"]) == 0
    assert "bottleneck: 4x8x8" in capsys.readouterr().out


# SHA-256 of the `netspec` stdout of every built-in spec
NETSPEC_DIGESTS = {
    ("neural_filter", "64x219x261"):
        "63a15de9adb48bb6ec0c06c2a7418d2b27bda7c661cb0d04152361b1a8ae968b",
    ("stem", "3x874x1044"): "54053df5cabc3464b8e2094054c8aa9e1ca34b4e264a11ce8e658fd93bc0b3fe",
    ("student_l1", "3x874x1044"):
        "512eda8e1708409f4ca8e3931f559fcdcdea408a2f4d682522379efe76851a38",
    ("student_l1_column", "64x219x261"):
        "901e82c9a4cf57098ba6e45bdeba26afd707e6ac3b908db6b2c6138520eb6eb5",
    ("teacher_l1", "64x219x261"):
        "3df4db6037f545078984fc9c8b2e8186f7626522097ceaa8d11029fff1600663",
}


@pytest.mark.parametrize("spec, shape", sorted(NETSPEC_DIGESTS))
def test_netspec_output_is_byte_identical(capsys, ref_path, spec, shape):
    assert run(["netspec", "--config", ref_path, "--spec", spec, "--input", shape]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == NETSPEC_DIGESTS[spec, shape]


@pytest.mark.parametrize("layer", [
    {"kind": "conv", "oc": "2", "k": 1},
    {"kind": "linear", "in_features": "3", "out_features": 2},
    {"kind": "adaptive_avgpool", "oh": "3", "ow": 3},
    {"kind": "conv", "oc": float("nan"), "k": 1},
    {"kind": "conv", "oc": 2.5, "k": 1},
    {"kind": "conv", "oc": True, "k": 1},
    {"kind": "conv", "oc": 2, "k": 1, "bottleneck": "no"},
    {"kind": "conv", "oc": 2, "k": 1, "bias": 1},
    {"kind": "conv", "oc": 2, "k": 1, "s": None},
    {"oc": 2, "k": 1},
    {"kind": "linear", "in_features": -5, "out_features": 2},
    {"kind": "linear", "in_features": 192, "out_features": -3},
], ids=["oc-str", "in-features-str", "oh-str", "oc-nan", "oc-float", "oc-bool",
        "bottleneck-str", "bias-int", "s-null", "no-kind", "in-features-negative",
        "out-features-negative"])
def test_netspec_mistyped_layer_field_exits_2(tmp_path, capsys, layer):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "typed", "layers": [layer]}))
    assert run(["netspec", "--spec", str(path), "--input", "3x8x8"]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert captured.out == ""


def test_netspec_ratio_beyond_a_float_exits_2(tmp_path, capsys):
    # a 400-digit channel count is an int, but its bottleneck ratio overflows a float
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "huge", "layers": [
        {"kind": "conv", "oc": 10**400, "k": 1, "bottleneck": True}]}))
    assert run(["netspec", "--spec", str(path), "--input", "3x8x8"]) == 2
    assert_one_error_line(capsys.readouterr().err)


def test_netspec_unknown_name_exits_2(ref_path):
    assert run(["netspec", "--config", ref_path, "--spec", "resnet_9000",
                "--input", "3x8x8"]) == 2


# --- distill -----------------------------------------------------------------------

def test_distill_full_fixture_reports_tiny_loss(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    assert run(["distill", "--fixture", "rank2_full", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    final = float(next(line.split(":")[1] for line in printed.splitlines()
                       if line.startswith("final_loss")))
    assert final < 1e-6
    assert out.read_text().startswith("epoch,mean_loss,lr")


def test_distill_same_seed_identical_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["distill", "--fixture", "rank3_bneck1", "--epochs", "40",
                "--seed", "3", "--out", str(a)]) == 0
    assert run(["distill", "--fixture", "rank3_bneck1", "--epochs", "40",
                "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_distill_zero_epochs_exits_2(tmp_path):
    assert run(["distill", "--fixture", "rank2_full", "--epochs", "0",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_distill_epochs_over_cap_exits_2_before_it_builds_the_fixture(tmp_path, capsys,
                                                                     monkeypatch):
    # ~0.1 ms and ~174 bytes of history per epoch: --epochs 10**9 would run
    # about a day and grow past 150 GB
    monkeypatch.setattr(cli, "MAX_EPOCHS", 5)
    monkeypatch.setattr(cli.distill, "get_fixture", None)
    out = tmp_path / "h.csv"
    assert run(["distill", "--fixture", "rank2_full", "--epochs", str(cli.MAX_EPOCHS + 1),
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert "at most 5" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("extra", [[], ["--epochs", "0"]], ids=["plain", "bad-epochs"])
def test_distill_unknown_fixture_exits_2(tmp_path, capsys, extra):
    # the name is checked before the epochs are
    assert run(["distill", "--fixture", "resnet50", *extra, "--out",
                str(tmp_path / "x.csv")]) == 2
    assert "unknown fixture 'resnet50'" in capsys.readouterr().err


# --- filter-metrics -----------------------------------------------------------------

def test_filter_metrics_reports_auc(capsys, ref_path):
    assert run(["filter-metrics", "--config", ref_path, "--n", "100000",
                "--seed", "1"]) == 0
    out = capsys.readouterr().out
    auc = float(next(line.split(":")[1] for line in out.splitlines()
                     if line.startswith("empirical_auc")))
    assert abs(auc - 0.919) <= 0.01


def test_filter_metrics_single_sample_runs(capsys, ref_path):
    assert run(["filter-metrics", "--config", ref_path, "--n", "1",
                "--seed", "2"]) == 0
    assert "drop_rate" in capsys.readouterr().out


# SHA-256 of the stdout of `filter-metrics --n 100000`. They were taken when
# the rank AUC argsorted the scores, and the sort of packed keys gives the
# same bytes
FILTER_METRICS_DIGESTS = {
    1: "ee61d223d75f2876b15cf32e7603d96461750fdbc250772deefae7aa0abf6522",
    2: "23b9f01361e334e36025608da5126fb67e00414e77d2d3dcaafdf94c3c896cbe",
    3: "40ba40262141b8bfd0c565dff463e6b9254306bd3b8d77e9445146871ab804f1",
}


@pytest.mark.parametrize("seed", sorted(FILTER_METRICS_DIGESTS))
def test_filter_metrics_output_is_byte_identical(capsys, ref_path, seed):
    assert run(["filter-metrics", "--config", ref_path, "--n", "100000",
                "--seed", str(seed)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == FILTER_METRICS_DIGESTS[seed]


# --- threads ------------------------------------------------------------------------

def _other_threads_cpu_s():
    whole = resource.getrusage(resource.RUSAGE_SELF)
    this = resource.getrusage(resource.RUSAGE_THREAD)
    return (whole.ru_utime + whole.ru_stime) - (this.ru_utime + this.ru_stime)


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                    reason="needs per-thread CPU accounting")
def test_offline_commands_leave_other_threads_idle(tmp_path, ref_path, capsys):
    # A BLAS kernel on a long vector wakes the library's worker threads, which
    # then busy-wait on another core: charge the caller every other thread's
    # CPU over each command and the 0.3 s after it
    tensor = str(tmp_path / "tensor.bin")
    save_message(tensor, tensor_to_message(random_fill(Shape([3, 223, 265]), seed=1,
                                                       lo=-1.0, hi=1.0)))
    q8, out = str(tmp_path / "q8.bin"), str(tmp_path / "out")
    commands = [
        ["sweep", "--config", ref_path, "--rates", "0.5..10:0.5", "--out", out],
        ["netspec", "--spec", "student_l1", "--input", "3x874x1044"],
        ["codec", "quantize", "--in", tensor, "--out", q8, "--width", "8"],
        ["codec", "quantize", "--in", tensor, "--out", out, "--width", "16"],
        ["codec", "dequantize", "--in", q8, "--out", out],
        ["distill", "--fixture", "rank3_bneck1", "--out", out],
        ["filter-metrics", "--config", ref_path, "--n", "100000", "--seed", "1"],
        ["client", "--config", ref_path, "--mode", "simulated", "--n", "100",
         "--seed", "1", "--out", out],
    ]
    time.sleep(0.3)  # lets threads that earlier tests woke go back to sleep
    busy = []
    for argv in commands:
        before = _other_threads_cpu_s()
        assert run(argv) == 0
        time.sleep(0.3)
        busy.append((" ".join(argv), _other_threads_cpu_s() - before))
    assert [(cmd, cpu_s) for cmd, cpu_s in busy if cpu_s >= 0.02] == []


# --- client / serve ------------------------------------------------------------------

def test_client_loopback_writes_session_log(tmp_path, ref_path):
    cfg = load_reference_config()
    out = tmp_path / "session.csv"
    with PipelineServer(prof=cfg.profile) as srv:
        host, port = srv.address
        assert run(["client", "--config", ref_path, "--addr", f"{host}:{port}",
                    "--n", "10", "--shape", "3x8x8", "--seed", "1",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == "image_id,filtered,bytes_sent,t_head,t_uplink,t_tail,total"


def test_client_simulated_mode_needs_no_server(tmp_path, ref_path):
    out = tmp_path / "session.csv"
    assert run(["client", "--config", ref_path, "--mode", "simulated",
                "--n", "25", "--seed", "2", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 26


# SHA-256 of stdout, then of the CSV, of `client --mode simulated --n 100
# --shape 3x64x64 --out session.csv`, from the client that built every tensor
# with make_stream. The reference gate drops none of these images, so the
# second config raises its threshold to 0.5 for labels and scores to show.
SIMULATED_CLIENT_DIGESTS = {
    ("reference", 1, 8): "dd6ab9adac8ecf442ad654e410b36381a0acd693b237b4b5d0478246a1dfaf0c",
    ("reference", 1, 16): "38f6ee972484f7b2a635b699f4fbb12776608c3226d65a68211f96dffc833492",
    ("reference", 1, 32): "ea10cdf60cf0c20ee16982fef70ab376e1cd1df127231928aadc39a86940e49f",
    ("reference", 2, 8): "dd6ab9adac8ecf442ad654e410b36381a0acd693b237b4b5d0478246a1dfaf0c",
    ("reference", 2, 16): "38f6ee972484f7b2a635b699f4fbb12776608c3226d65a68211f96dffc833492",
    ("reference", 2, 32): "ea10cdf60cf0c20ee16982fef70ab376e1cd1df127231928aadc39a86940e49f",
    ("reference", 3, 8): "dd6ab9adac8ecf442ad654e410b36381a0acd693b237b4b5d0478246a1dfaf0c",
    ("reference", 3, 16): "38f6ee972484f7b2a635b699f4fbb12776608c3226d65a68211f96dffc833492",
    ("reference", 3, 32): "ea10cdf60cf0c20ee16982fef70ab376e1cd1df127231928aadc39a86940e49f",
    ("threshold-0.5", 1, 8): "a8e974571cf507ff4422dfba0d9cf0ec3b3cc999ca1d4579338736c12b67bbec",
    ("threshold-0.5", 1, 16): "4eb6b059db2255bdeeadc181db8b3fe7d1fc1f20b75181a931f3e988a1c3d3cf",
    ("threshold-0.5", 1, 32): "06cc3d3b495cca9884a742851b3b65f2d43650f83ae0e1ba2aaa5efca5cf2bac",
    ("threshold-0.5", 2, 8): "58ce699596ad8b0b3de52273185f0e40493003734c03b19812cfc31f1ecb02d9",
    ("threshold-0.5", 2, 16): "1657e721cf0a797a6a8d61f7542108e3af00048b9d4253e161d3169a3030e942",
    ("threshold-0.5", 2, 32): "49ad91b2f660e2dbeb4c7cae3f000a7e1b4b6a1689eac21c9c50a9519fca77e8",
    ("threshold-0.5", 3, 8): "9b323d443ade203e117ed0fd8fdd24963ffce95cafd80c81df0582f34db9a945",
    ("threshold-0.5", 3, 16): "427b51b65a6428ff6e3a4d36e049408c4bd358b35126d4c5f1484d22ff0012d5",
    ("threshold-0.5", 3, 32): "860c112f93e2afa4c786c052c88cd0d06ebd60e1267870a1f99916fe420027a9",
}


@pytest.mark.parametrize("config, seed, width", sorted(SIMULATED_CLIENT_DIGESTS))
def test_simulated_client_output_is_byte_identical(tmp_path, monkeypatch, capsys, ref_path,
                                                   config, seed, width):
    monkeypatch.chdir(tmp_path)  # stdout names the --out path
    if config == "threshold-0.5":
        doc = json.loads(Path(ref_path).read_text())
        doc["filter"]["threshold"] = 0.5
        ref_path = "half.json"
        Path(ref_path).write_text(json.dumps(doc))
    assert run(["client", "--config", ref_path, "--mode", "simulated", "--n", "100",
                "--shape", "3x64x64", "--width", str(width), "--seed", str(seed),
                "--out", "session.csv"]) == 0
    h = hashlib.sha256(capsys.readouterr().out.encode())
    h.update(Path("session.csv").read_bytes())
    assert h.hexdigest() == SIMULATED_CLIENT_DIGESTS[config, seed, width]


def test_simulated_client_memory_does_not_grow_with_n(tmp_path, ref_path):
    # 2000 images of 3x64x64 float32 tensors would take 98 MB
    tracemalloc.start()
    try:
        assert run(["client", "--config", ref_path, "--mode", "simulated", "--n", "2000",
                    "--shape", "3x64x64", "--out", str(tmp_path / "s.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_simulated_client_memory_does_not_grow_with_shape(tmp_path, ref_path):
    # one 3x2000x2000 float32 zero tensor took 48 MB
    args = ["client", "--config", ref_path, "--mode", "simulated", "--n", "1",
            "--out", str(tmp_path / "s.csv"), "--shape"]
    assert run([*args, "1x1x1"]) == 0  # the first run imports what it needs
    tracemalloc.start()
    try:
        assert run([*args, "3x2000x2000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("changes", [
    {"channel": {"rate_bps": 1e-320}},
    {"profile": {"t_local": 1.7e308, "t_head": 1e308, "t_tail": 1e308}},
], ids=["uplink", "head-plus-tail"])
def test_simulated_client_delay_overflow_exits_2(tmp_path, ref_path, capsys, changes):
    # the log and the printed mean once read inf
    def overflow(doc):
        for section, values in changes.items():
            doc[section].update(values)
    path = write_config(tmp_path, ref_path, overflow)
    out = tmp_path / "s.csv"
    assert run(["client", "--config", path, "--mode", "simulated", "--n", "3",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert captured.out == "" and not out.exists()


def test_client_without_server_exits_4(tmp_path, ref_path):
    assert run(["client", "--config", ref_path, "--addr", "127.0.0.1:1",
                "--n", "2", "--out", str(tmp_path / "x.csv")]) == 4


def test_client_frame_over_the_cap_exits_2_before_building_a_tensor(
        tmp_path, ref_path, capsys, monkeypatch):
    # a 17,280,000-byte payload: it was built, then refused as "cannot reach
    # server" (exit 4), or reset by a live server that read only its header
    monkeypatch.setattr(cli, "make_stream", lambda *a: pytest.fail("built the tensors"))
    assert run(["client", "--config", ref_path, "--mode", "socket", "--addr", "127.0.0.1:1",
                "--shape", "3x1200x1200", "--width", "32", "--n", "1",
                "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "MAX_PAYLOAD_BYTES" in err


@pytest.mark.parametrize("mode", ["simulated", "socket"])
def test_client_rank_over_max_ndim_exits_2_before_building(tmp_path, ref_path, capsys,
                                                          monkeypatch, mode):
    # simulated charged a 60-byte frame no header can carry and exited 0; socket
    # built every tensor, connected, then exited 3
    monkeypatch.setattr(cli, "make_stream", lambda *a: pytest.fail("built the tensors"))
    out = tmp_path / "x.csv"
    assert run(["client", "--config", ref_path, "--mode", mode, "--addr", "127.0.0.1:1",
                "--shape", "1x1x1x1x1x1x1x1x1", "--n", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "a frame carries at most 8 dims, got 9" in err
    assert not out.exists()


def test_client_zero_images_exits_2(tmp_path, ref_path):
    assert run(["client", "--config", ref_path, "--mode", "simulated",
                "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("args", [
    ["sweep", "--rates", "0..1:0.5"],
    ["sweep", "--rates", "1,2", "--p-drop", "1.5"],
    ["sweep", "--rates", "1,2", "--p-drop", "nan"],
    ["filter-metrics", "--n", "0"],
    # exited 0 after ~3 s; 10 times the cap asks for ~6 GB
    ["filter-metrics", "--n", str(MAX_SAMPLES + 1)],
], ids=["rate-range-from-0", "p-drop-1.5", "p-drop-nan", "filter-metrics-n-0",
        "filter-metrics-n-over-cap"])
def test_out_of_range_number_exits_2_with_one_error_line(tmp_path, ref_path, capsys, args):
    if args[0] == "sweep":
        args = args + ["--out", str(tmp_path / "x.csv")]
    assert run(args[:1] + ["--config", ref_path] + args[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["simulated", "socket"])
def test_client_n_over_cap_exits_2_before_it_builds_images(tmp_path, ref_path, capsys,
                                                          monkeypatch, mode):
    # the simulated client took ~360 bytes and 13 us per image, with no bound
    monkeypatch.setattr(cli, "MAX_IMAGES", 5)
    monkeypatch.setattr(cli, "make_stream", None)  # a socket client builds nothing
    out = tmp_path / "x.csv"
    assert run(["client", "--config", ref_path, "--mode", mode, "--addr", "127.0.0.1:1",
                "--n", str(cli.MAX_IMAGES + 1), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert "at most 5" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("mode", ["simulated", "socket"])
@pytest.mark.parametrize("section, key, value", [
    ("channel", "rate_bps", "NaN"),
    ("channel", "rate_bps", "Infinity"),
    ("profile", "t_tail", "NaN"),
], ids=["rate-nan", "rate-inf", "t-tail-nan"])
def test_non_finite_config_value_exits_2_with_one_error_line(tmp_path, ref_path, capsys,
                                                             mode, section, key, value):
    # Python's json reads NaN and Infinity; a config file may hold them
    text = Path(ref_path).read_text()
    doc = json.loads(text)
    doc[section][key] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"@"', value))
    out = tmp_path / "x.csv"
    assert run(["client", "--config", str(path), "--mode", mode, "--addr", "127.0.0.1:1",
                "--n", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, args", [
    ("sizes", "jpeg_bytes", "NaN", ["sweep", "--rates", "1,5"]),
    ("sizes", "jpeg_bytes", "true", ["sweep", "--rates", "1,5"]),
    ("filter", "mu_nonempty", "NaN", ["filter-metrics", "--n", "1000"]),
    ("filter", "sigma_empty", "NaN", ["filter-metrics", "--n", "1000"]),
], ids=["jpeg-bytes-nan", "jpeg-bytes-true", "mu-nonempty-nan", "sigma-empty-nan"])
def test_nan_or_bool_sizes_or_filter_value_exits_2_with_one_error_line(
        tmp_path, ref_path, capsys, section, key, value, args):
    doc = json.loads(Path(ref_path).read_text())
    doc[section][key] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"@"', value))
    out = tmp_path / "x.csv"
    if args[0] == "sweep":
        args = args + ["--out", str(out)]
    assert run(args[:1] + ["--config", str(path)] + args[1:]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


NUMERIC_CONFIG_FIELDS = [
    (section, key)
    for section in ("profile", "channel", "sizes", "filter")
    for key in json.loads(Path(reference_config_path()).read_text())[section]
]


@pytest.mark.parametrize("section, key", NUMERIC_CONFIG_FIELDS,
                         ids=[key for _, key in NUMERIC_CONFIG_FIELDS])
@pytest.mark.parametrize("value", [float("nan"), True], ids=["nan", "bool"])
def test_every_numeric_config_value_must_be_a_finite_number(section, key, value):
    doc = json.loads(Path(reference_config_path()).read_text())
    doc[section][key] = value
    with pytest.raises(ArgumentError, match=f"{key} must be"):
        config_from_dict(doc)


@pytest.mark.parametrize("command", ["serve", "client"])
@pytest.mark.parametrize("port", ["99999", "\u00b2"], ids=["99999", "superscript-two"])
def test_port_outside_0_to_65535_exits_2(tmp_path, ref_path, capsys, command, port):
    args = [command, "--config", ref_path, "--addr", f"127.0.0.1:{port}"]
    if command == "client":
        args += ["--n", "1", "--out", str(tmp_path / "x.csv")]
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error: bad address")


def test_serve_bind_conflict_exits_4(ref_path):
    with PipelineServer(prof=load_reference_config().profile) as srv:
        host, port = srv.address
        assert run(["serve", "--config", ref_path,
                    "--addr", f"{host}:{port}"]) == 4


def test_serve_prints_its_address_and_stops_on_sigint(tmp_path, ref_path):
    # with port 0 the printed line is the only way to learn the bound port
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    with subprocess.Popen([sys.executable, "-m", "splitwire.cli", "serve", "--config", ref_path,
                           "--addr", "127.0.0.1:0", "--idle-timeout", "1.0"],
                          stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 10.0)
            assert ready, "serve printed nothing"
            line = proc.stdout.readline()
            bound = re.fullmatch(r"serving on 127\.0\.0\.1:(\d+)\n", line)
            assert bound and int(bound.group(1)) != 0, line
            out = tmp_path / "session.csv"
            assert run(["client", "--config", ref_path, "--mode", "socket",
                        "--addr", f"127.0.0.1:{bound.group(1)}", "--n", "20",
                        "--shape", "3x16x16", "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 21
            # --idle-timeout reaches the server: a silent peer is closed after 1 s
            with socket.create_connection(("127.0.0.1", int(bound.group(1))),
                                          timeout=5.0) as peer:
                start = time.monotonic()
                assert peer.recv(1) == b""
                assert 0.8 <= time.monotonic() - start <= 3.0
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=5.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_serve_unusable_idle_timeout_exits_2(ref_path, capsys, timeout):
    assert run(["serve", "--config", ref_path, "--addr", "127.0.0.1:0",
                "--idle-timeout", timeout]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert_one_error_line(printed.err)


# --- file errors -----------------------------------------------------------------------

@pytest.mark.parametrize("case", ["codec-missing-in", "codec-directory-in", "sweep-out",
                                  "distill-out", "client-out"])
def test_unusable_file_exits_2_with_one_error_line(tmp_path, ref_path, capsys, case):
    missing = str(tmp_path / "no-such-dir" / "x")
    args = {
        "codec-missing-in": ["codec", "quantize", "--in", missing,
                             "--out", str(tmp_path / "q.bin")],
        "codec-directory-in": ["codec", "dequantize", "--in", str(tmp_path),
                               "--out", str(tmp_path / "t.bin")],
        "sweep-out": ["sweep", "--config", ref_path, "--rates", "1,2", "--out", missing],
        "distill-out": ["distill", "--fixture", "rank2_full", "--epochs", "1",
                        "--out", missing],
        "client-out": ["client", "--config", ref_path, "--mode", "simulated",
                       "--n", "2", "--out", missing],
    }[case]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# --- README examples --------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("command", ["splitwire distill --fixture rank3_bneck1",
                                     "splitwire netspec --spec student_l1 --input 3x874x1044"])
def test_readme_example_prints_what_readme_shows(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("SPLITWIRE_CONFIG", raising=False)
    lines = README.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(command))
    shown = []
    for line in lines[at + 1:]:
        if not line.startswith("# "):
            break
        if ": " in line:
            shown.append(line[2:])
    assert shown
    args = [str(tmp_path / a) if a.endswith(".csv") else a for a in lines[at].split()[1:]]
    assert run(args) == 0
    printed = capsys.readouterr().out.splitlines()
    for line in shown:
        assert line in printed


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    code = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("SizeReport(payload_bytes=177285, header_bytes=35")
    assert [line.split()[0] for line in printed[1:]] == ["LC", "PO", "SC", "SCNF"]


# --- config plumbing ------------------------------------------------------------------

def test_env_var_config_fallback(tmp_path, monkeypatch, ref_path, capsys):
    monkeypatch.setenv("SPLITWIRE_CONFIG", ref_path)
    assert run(["netspec", "--spec", "stem", "--input", "3x64x64"]) == 0


def test_reference_config_is_valid():
    cfg = load_reference_config()
    assert cfg.profile.t_local == 2.25
    assert cfg.filter.threshold == 0.1
    assert cfg.name == "keypoint_rn50"


def test_config_rejects_unknown_keys(tmp_path):
    doc = json.loads(Path(reference_config_path()).read_text())
    doc["queueing"] = {"model": "mm1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArgumentError):
        load_config(str(path))


def test_config_netspec_section_round_trips(tmp_path):
    doc = json.loads(Path(reference_config_path()).read_text())
    doc["netspecs"] = {"tiny": [{"kind": "conv", "oc": 2, "k": 1}]}
    path = tmp_path / "with_spec.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.get_netspec("tiny").layers[0].oc == 2
    assert cfg.get_netspec("stem").name == "stem"


@pytest.mark.parametrize("seed", ["abc", float("nan"), float("inf"), float("-inf"), 1.5, 1.0,
                                  True, -3, None, [1]])
def test_config_seed_must_be_a_non_negative_integer(tmp_path, ref_path, capsys, seed):
    path = write_config(tmp_path, ref_path, lambda doc: doc.update(seed=seed))
    assert run(["filter-metrics", "--config", path, "--n", "10"]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert "seed" in captured.err and captured.out == ""


def test_large_config_seed_is_accepted(tmp_path, ref_path, capsys):
    path = write_config(tmp_path, ref_path, lambda doc: doc.update(seed=2**70))
    assert run(["filter-metrics", "--config", path, "--n", "10"]) == 0


@pytest.mark.parametrize("args", [
    ["filter-metrics", "--n", "10", "--seed", "-1"],
    ["client", "--mode", "simulated", "--n", "2", "--seed", "-1", "--out", "@out"],
    ["distill", "--fixture", "rank2_full", "--epochs", "1", "--seed", "-100000",
     "--out", "@out"],
    ["distill", "--fixture", "rank2_full", "--epochs", "1", "--seed", "-1", "--out", "@out"],
    ["filter-metrics", "--n", "10", "--seed", "1.5"],
], ids=["filter-metrics", "client", "distill-large", "distill-minus-1", "filter-metrics-1.5"])
def test_bad_seed_flag_exits_2(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run([str(out) if a == "@out" else a for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "argument --seed: invalid non_negative_int value" in errors[0]
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("netspecs", [{"x": {}}, [], "stem", {"x": {"layers": [{"kind": "relu"}]}},
                                      {"x": [{}]}, {"x": ["relu"]},
                                      {"x": [{"kind": "conv", "oc": "2", "k": 1}]}],
                         ids=["empty-object", "list", "string", "layers-object", "no-kind",
                              "string-layer", "mistyped-field"])
def test_config_netspecs_must_map_names_to_layer_lists(tmp_path, ref_path, capsys, netspecs):
    path = write_config(tmp_path, ref_path, lambda doc: doc.update(netspecs=netspecs))
    assert run(["filter-metrics", "--config", path, "--n", "10"]) == 2
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("document", ["config", "spec"])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"seed": ' + b"9" * 5000 + b"}"],
                         ids=["not-utf-8", "int-over-the-digit-limit"])
def test_unloadable_json_document_exits_2(tmp_path, capsys, document, content):
    # json.load raised UnicodeDecodeError, or ValueError past Python's
    # int-string digit limit, neither of them a JSONDecodeError
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    spec = ["--config", str(path), "--spec", "stem"] if document == "config" else [
        "--spec", str(path)]
    assert run(["netspec", *spec, "--input", "3x8x8"]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert "is not valid JSON" in captured.err


def test_allocation_too_large_exits_2(tmp_path, ref_path, capsys):
    # a 10**15-element tensor cannot be allocated on any machine: numpy raises
    # MemoryError while the socket client builds its images
    assert run(["client", "--config", ref_path, "--addr", "127.0.0.1:1", "--n", "1",
                "--shape", "1000x1000x1000000", "--out", str(tmp_path / "s.csv")]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert captured.out == ""
