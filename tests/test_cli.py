import json
import threading
from pathlib import Path

import numpy as np
import pytest

from splitwire.cli import main
from splitwire.codec import quantize8, wire_header_bytes
from splitwire.config import load_config, load_reference_config, reference_config_path
from splitwire.errors import ArgumentError
from splitwire.pipeline.server import PipelineServer
from splitwire.pipeline.wire import (
    MsgType,
    WireMessage,
    load_message,
    message_to_tensor,
    save_message,
    tensor_to_message,
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


# --- codec ----------------------------------------------------------------------

def test_codec_quantize_then_dequantize_bounds_error(tmp_path, tensor_file, capsys):
    q8 = tmp_path / "q8.bin"
    back = tmp_path / "back.bin"
    assert run(["codec", "quantize", "--in", tensor_file, "--out", str(q8),
                "--width", "8"]) == 0
    printed = capsys.readouterr().out
    assert "max_roundtrip_error" in printed
    assert run(["codec", "dequantize", "--in", str(q8), "--out", str(back)]) == 0

    orig = message_to_tensor(load_message(tensor_file))
    restored = message_to_tensor(load_message(str(back)))
    scale = quantize8(orig).scale
    err = max(abs(a - b) for a, b in zip(orig.tolist(), restored.tolist()))
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


def test_distill_unknown_fixture_exits_2(tmp_path):
    assert run(["distill", "--fixture", "resnet50", "--out",
                str(tmp_path / "x.csv")]) == 2


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


def test_client_without_server_exits_4(tmp_path, ref_path):
    assert run(["client", "--config", ref_path, "--addr", "127.0.0.1:1",
                "--n", "2", "--out", str(tmp_path / "x.csv")]) == 4


def test_client_zero_images_exits_2(tmp_path, ref_path):
    assert run(["client", "--config", ref_path, "--mode", "simulated",
                "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command", ["serve", "client"])
@pytest.mark.parametrize("port", ["99999", "\u00b2"], ids=["99999", "superscript-two"])
def test_port_outside_0_to_65535_exits_2(tmp_path, ref_path, capsys, command, port):
    args = [command, "--config", ref_path, "--addr", f"127.0.0.1:{port}"]
    if command == "client":
        args += ["--n", "1", "--out", str(tmp_path / "x.csv")]
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error: bad address")


def test_serve_bind_conflict_exits_4(ref_path):
    with PipelineServer() as srv:
        host, port = srv.address
        assert run(["serve", "--config", ref_path,
                    "--addr", f"{host}:{port}"]) == 4


def test_serve_then_client_over_cli(tmp_path, ref_path):
    # spin the blocking serve loop in a thread against an OS-assigned port
    probe = PipelineServer()
    probe.start()
    host, port = probe.address
    probe.stop()

    thread = threading.Thread(
        target=run,
        args=(["serve", "--config", ref_path, "--addr", f"{host}:{port}",
               "--idle-timeout", "1.0"],),
        daemon=True,
    )
    thread.start()
    import time

    out = tmp_path / "cli_session.csv"
    deadline = time.monotonic() + 5.0
    rc = None
    while time.monotonic() < deadline:
        rc = run(["client", "--config", ref_path, "--addr", f"{host}:{port}",
                  "--n", "5", "--shape", "3x4x4", "--seed", "3",
                  "--out", str(out)])
        if rc == 0:
            break
        time.sleep(0.1)
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 6


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
