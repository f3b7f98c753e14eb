"""The CLI's exit-code contract as a property.

For any config document, spec document and argv drawn here, `splitwire`
exits 0, 2 or 3 without a traceback, prints at most one `error:` line, and
on exit 0 prints and writes no nan or inf. The one documented exception is
`filter-metrics`, which prints nan for recall_nonempty, false_negative_rate
and empirical_auc when its sample lacks a class (at `--n 1`, for example).
`codec` is held to the same rule on wire files drawn as one valid frame with
at most one mutation; its output files are binary and go unread. A
socket-mode `client` against a live server, an unused port or a malformed
address may also exit 4, a transport problem.
"""

import contextlib
import copy
import io
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from splitwire.cli import MAX_EPOCHS, MAX_SAMPLES, main
from splitwire.config import load_reference_config, reference_config_path
from splitwire.distill import fixture_names
from splitwire.pipeline.server import PipelineServer
from splitwire.pipeline.wire import MsgType, WireMessage, encode_message

REFERENCE = json.loads(Path(reference_config_path()).read_text())
NUMERIC_FIELDS = [(section, key) for section in ("profile", "channel", "sizes", "filter")
                  for key in REFERENCE[section]]

# one value of each kind the contract names: NaN, +-Inf, negative, 0, huge,
# wrong type and bool; any float or small int stands for "finite"
numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0, 0.0, 1e300, 10**30,
                     "1", None, [], True, False]),
    st.floats(),
    st.integers(-10, 10**6),
)
seed_values = st.one_of(st.integers(-3, 2**70),
                        st.sampled_from(["abc", math.nan, math.inf, 1.5, 1.0, True, None]))

INT_FIELDS = ("oc", "k", "s", "p", "oh", "ow", "in_features", "out_features")
layers = st.fixed_dictionaries(
    {"kind": st.sampled_from(["conv", "batchnorm", "relu", "maxpool", "adaptive_avgpool",
                              "linear", "softmax", "warp", 3])},
    optional={
        **{name: st.one_of(st.integers(-1, 9),
                           st.sampled_from([None, 2.5, "2", True, math.nan, 10**18, 10**400]))
           for name in INT_FIELDS},
        "bottleneck": st.sampled_from([True, False, "no", 1, None]),
        "bias": st.sampled_from([True, False, "no", 1, None]),
    },
)
layer_lists = st.one_of(st.lists(layers, max_size=4), st.sampled_from([{}, "relu", 3, None]))
netspecs = st.one_of(st.dictionaries(st.sampled_from(["tiny", "stem"]), layer_lists, max_size=2),
                     st.sampled_from([[], "tiny", 3, None]))


@st.composite
def configs(draw):
    doc = copy.deepcopy(REFERENCE)
    for section, key in draw(st.lists(st.sampled_from(NUMERIC_FIELDS), max_size=3,
                                      unique=True)):
        doc[section][key] = draw(numbers)
    if draw(st.booleans()):
        doc["seed"] = draw(seed_values)
    if draw(st.booleans()):
        doc["netspecs"] = draw(netspecs)
    return doc


spec_docs = st.fixed_dictionaries({"name": st.sampled_from(["net", 5]), "layers": layer_lists})

flag_seeds = st.one_of(st.integers(-3, 2**70).map(str), st.sampled_from(["abc", "1.5", "-0"]))
# never MAX_SAMPLES itself, which runs for seconds
counts = st.one_of(st.integers(-1, 300).map(str),
                   st.sampled_from(["abc", str(MAX_SAMPLES + 1), str(10**9), str(10**15)]))
shapes = st.sampled_from(["3x8x8", "3x64x64", "1x1x1", "64x219x261", "3x0x4", "3x8", "axb"])
rate_texts = st.one_of(
    st.sampled_from(["1,2,5", "0.5..10:0.5", "1e-320", "1e308", "1,1e303", "0..1:0.5",
                     "5..1:1", "1..2:0", "0.5..10:1e-9", "abc", "1,nan", "2,1", ""]),
    st.builds("{!r}..{!r}:{!r}".format, st.floats(-1, 50), st.one_of(st.floats(-1, 60),
                                                                     st.just(1e308)),
              st.sampled_from([0.25, 1.0, 7.0, 0.0, -1.0, 1e-9, 1e-300])),
)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


# "@config", "@spec" and "@out" stand for files the test writes or reads
argvs = st.one_of(
    st.tuples(st.just(["sweep", "--config", "@config", "--out", "@out", "--rates"]),
              rate_texts.map(lambda r: [r]),
              optional("--width", st.sampled_from(["8", "16", "32"])),
              optional("--p-drop", st.floats().map(repr))),
    st.tuples(st.just(["netspec", "--config", "@config", "--spec"]),
              st.sampled_from(["@spec", "stem", "student_l1", "tiny", "nope"]).map(lambda s: [s]),
              shapes.map(lambda s: ["--input", s])),
    st.tuples(st.just(["filter-metrics", "--config", "@config", "--n"]),
              counts.map(lambda n: [n]), optional("--seed", flag_seeds)),
    st.tuples(st.just(["client", "--config", "@config", "--mode", "simulated", "--out", "@out",
                       "--shape"]),
              # up to ~10**9 elements: the simulated client builds no tensor
              st.sampled_from(["3x8x8", "1x1x1", "3x0x4", "1000x1000x1000",
                               "3x20000x20000"]).map(lambda s: [s]),
              st.integers(-1, 40).map(lambda n: ["--n", str(n)]),
              optional("--width", st.sampled_from(["8", "16", "32"])),
              optional("--seed", flag_seeds)),
    st.tuples(st.just(["distill", "--out", "@out", "--fixture"]),
              st.sampled_from([*fixture_names(), "nope"]).map(lambda f: [f]),
              # never MAX_EPOCHS itself, which trains for seconds
              st.one_of(st.integers(-1, 3),
                        st.sampled_from([MAX_EPOCHS + 1, 10**9, 10**30])).map(
                  lambda e: ["--epochs", str(e)]),
              optional("--seed", flag_seeds)),
).map(lambda parts: [token for part in parts for token in part])

NON_FINITE = re.compile(r"(?<![\w.])[-+]?(nan|inf|infinity)(?![\w.])", re.IGNORECASE)
NAN_WHEN_A_CLASS_IS_ABSENT = ("recall_nonempty:", "false_negative_rate:", "empirical_auc:")


def with_config(**changes):
    doc = copy.deepcopy(REFERENCE)
    for path, value in changes.items():
        section, _, key = path.rpartition("__")
        (doc[section] if section else doc)[key] = value
    return doc


def conv(**fields):
    return {"name": "net", "layers": [{"kind": "conv", "oc": 2, "k": 1, **fields}]}


NETSPEC = ["netspec", "--spec", "@spec", "--input", "3x8x8"]
FILTER_METRICS = ["filter-metrics", "--config", "@config", "--n", "10"]
SWEEP = ["sweep", "--config", "@config", "--out", "@out", "--rates"]


@settings(max_examples=200)
@given(doc=configs(), spec=spec_docs, argv=argvs)
# config seeds and netspecs that ended in a traceback
@example(doc=with_config(netspecs={"x": {}}), spec=None, argv=FILTER_METRICS)
@example(doc=with_config(netspecs=[]), spec=None, argv=FILTER_METRICS)
@example(doc=with_config(netspecs={"x": [{}]}), spec=None, argv=FILTER_METRICS)
@example(doc=with_config(seed="abc"), spec=None, argv=FILTER_METRICS)
@example(doc=with_config(seed=math.nan), spec=None, argv=FILTER_METRICS)
@example(doc=with_config(seed=math.inf), spec=None, argv=FILTER_METRICS)
@example(doc=with_config(seed=-3), spec=None, argv=FILTER_METRICS)
@example(doc=REFERENCE, spec=None, argv=[*FILTER_METRICS, "--seed", "-1"])
@example(doc=REFERENCE, spec=None, argv=["client", "--config", "@config", "--mode", "simulated",
                                         "--n", "2", "--seed", "-1", "--out", "@out"])
@example(doc=REFERENCE, spec=None, argv=["distill", "--fixture", "rank2_full", "--epochs", "1",
                                         "--seed", "-100000", "--out", "@out"])
# an epoch count that trains for hours and grows without bound
@example(doc=REFERENCE, spec=None, argv=["distill", "--fixture", "rank2_full", "--epochs",
                                         str(MAX_EPOCHS + 1), "--out", "@out"])
# mistyped layer fields that ended in a traceback
@example(doc=REFERENCE, spec=conv(oc="2"), argv=NETSPEC)
@example(doc=REFERENCE, spec=conv(oc=math.nan), argv=NETSPEC)
@example(doc=REFERENCE, spec={"name": "net", "layers": [
    {"kind": "linear", "in_features": "3", "out_features": 2}]}, argv=NETSPEC)
@example(doc=REFERENCE, spec={"name": "net", "layers": [
    {"kind": "adaptive_avgpool", "oh": "3", "ow": 3}]}, argv=NETSPEC)
@example(doc=REFERENCE, spec={"name": "net", "layers": [{"oc": 2}]}, argv=NETSPEC)
@example(doc=REFERENCE, spec=conv(oc=10**400, bottleneck=True), argv=NETSPEC)
# rates that built an unbounded list, wrote inf and nan, or exited 3
@example(doc=REFERENCE, spec=None, argv=[*SWEEP, "0.5..10:1e-9"])
@example(doc=REFERENCE, spec=None, argv=[*SWEEP, "1e-320"])
@example(doc=REFERENCE, spec=None, argv=[*SWEEP, "1e308"])
# a free head and filter that drop every image: the SCNF delay is 0
@example(doc=with_config(profile__t_head=0.0, profile__t_filter_extra=0.0), spec=None,
         argv=[*SWEEP, "1,2", "--p-drop", "1"])
# a finite sigma wide enough that a latent overflows exp
@example(doc=with_config(filter__sigma_nonempty=800.0), spec=None,
         argv=["filter-metrics", "--config", "@config", "--n", "2", "--seed", "1"])
# a channel so slow, or head and tail times so long, that a delay overflows
@example(doc=with_config(channel__rate_bps=1e-320), spec=None,
         argv=["client", "--config", "@config", "--mode", "simulated", "--n", "3",
               "--out", "@out"])
@example(doc=with_config(profile__t_local=1.7e308, profile__t_head=1e308,
                         profile__t_tail=1e308), spec=None,
         argv=["client", "--config", "@config", "--mode", "simulated", "--n", "3",
               "--out", "@out"])
# sample counts past the cap, and an allocation numpy refuses
@example(doc=REFERENCE, spec=None, argv=["filter-metrics", "--config", "@config",
                                         "--n", str(MAX_SAMPLES + 1)])
@example(doc=REFERENCE, spec=None, argv=["filter-metrics", "--config", "@config",
                                         "--n", str(10**15)])
@example(doc=REFERENCE, spec=None, argv=["client", "--config", "@config", "--mode", "simulated",
                                         "--n", str(10**15), "--out", "@out"])
# a shape whose float32 tensor would take 4.8 GB
@example(doc=REFERENCE, spec=None, argv=["client", "--config", "@config", "--mode", "simulated",
                                         "--n", "40", "--shape", "3x20000x20000",
                                         "--out", "@out"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_exit_code_contract(doc, spec, argv):
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: str(Path(tmp, name[1:])) for name in ("@config", "@spec", "@out")}
        Path(files["@config"]).write_text(json.dumps(doc))
        Path(files["@spec"]).write_text(json.dumps(spec))
        code, printed = run_checked([files.get(token, token) for token in argv])
        if code == 0:
            if argv[0] == "filter-metrics":
                printed = "\n".join(line for line in printed.splitlines()
                                    if not line.startswith(NAN_WHEN_A_CLASS_IS_ABSENT))
            written = Path(files["@out"])
            assert not NON_FINITE.search(printed)
            assert not (written.exists() and NON_FINITE.search(written.read_text()))


def run_checked(argv, codes=(0, 2, 3)):
    """Exit code and stdout of ``main(argv)``, held to the exit-code and
    one-error-line rules."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in codes, err.getvalue()
    assert err.getvalue().count("error:") <= (1 if code else 0)
    return code, out.getvalue()


# --- codec on wire files ---------------------------------------------------------

ELEMENT = {MsgType.QTENSOR8: "u1", MsgType.QTENSOR16: "<f2", MsgType.FTENSOR32: "<f4"}
# byte offsets of a frame's msg_type, ndim and first dim; the scale follows the
# dims, and the payload follows the 16 bytes of scale, zero point and length
TYPE_AT, NDIM_AT, DIMS_AT = 5, 6, 7


@st.composite
def tensor_frames(draw, msg_types):
    """One valid tensor frame of one of ``msg_types``."""
    msg_type = draw(st.sampled_from(msg_types))
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    n = math.prod(dims)
    if msg_type is MsgType.QTENSOR8:
        payload = bytes(draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)))
        scale = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, width=32))
        zero_point = draw(st.integers(0, 255))
    else:
        bound = 65504.0 if msg_type is MsgType.QTENSOR16 else None
        values = draw(st.lists(st.floats(-bound if bound else None, bound, width=32,
                                         allow_nan=False, allow_infinity=False),
                               min_size=n, max_size=n))
        payload = np.array(values, dtype=ELEMENT[msg_type]).tobytes()
        scale, zero_point = 1.0, 0
    return encode_message(WireMessage(msg_type, tuple(dims), scale, zero_point, payload))


def mutate(frame, kind, at, value):
    """``frame`` with one defect of ``kind``; ``at`` and ``value`` pick where and what."""
    frame = bytearray(frame)
    rank, msg_type = frame[NDIM_AT], MsgType(frame[TYPE_AT])
    scale_at = DIMS_AT + 4 * rank
    if kind == "truncated":
        return bytes(frame[:at % len(frame)])
    if kind == "type":
        frame[TYPE_AT] = value % 256
    elif kind == "dims":
        struct.pack_into(">I", frame, DIMS_AT + 4 * (at % rank), value)
    elif kind == "nan" and msg_type is MsgType.QTENSOR8:
        struct.pack_into(">f", frame, scale_at, math.nan)
    elif kind == "nan":
        nan = np.array([math.nan], dtype=ELEMENT[msg_type]).tobytes()
        payload_at = scale_at + 16
        start = payload_at + len(nan) * (at % ((len(frame) - payload_at) // len(nan)))
        frame[start:start + len(nan)] = nan
    return bytes(frame)


# quantize reads a float32 tensor, dequantize any of the three
codec_runs = st.one_of(
    st.tuples(st.sampled_from([["quantize", "--width", "8"], ["quantize", "--width", "16"]]),
              tensor_frames([MsgType.FTENSOR32])),
    st.tuples(st.just(["dequantize"]), tensor_frames(sorted(ELEMENT))),
)


def f32_frame(values):
    values = np.array(values, dtype="<f4")
    return encode_message(WireMessage(MsgType.FTENSOR32, (values.size,), 1.0, 0,
                                      values.tobytes()))


# no explain phase: on a failing example it traced for minutes and grew past 1.5 GB
@settings(max_examples=150, phases=[p for p in Phase if p is not Phase.explain])
@given(run=codec_runs, kind=st.sampled_from(["none", "truncated", "type", "dims", "nan"]),
       at=st.integers(0, 10**6), value=st.integers(0, 2**32 - 1))
@example(run=(["quantize", "--width", "8"], f32_frame([-1.0, 1.0])), kind="none", at=0,
         value=0)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_codec_exit_code_contract(run, kind, at, value):
    argv, frame = run
    with tempfile.TemporaryDirectory() as tmp:
        infile, outfile = Path(tmp, "in.bin"), Path(tmp, "out.bin")
        infile.write_bytes(mutate(frame, kind, at, value))
        code, printed = run_checked(["codec", argv[0], "--in", str(infile),
                                     "--out", str(outfile), *argv[1:]])
        if code == 0:
            assert not NON_FINITE.search(printed)


# --- socket-mode client ----------------------------------------------------------------

@pytest.fixture(scope="module")
def server_addr():
    with PipelineServer(prof=load_reference_config().profile) as srv:
        yield "%s:%d" % srv.address


def paces_for_long(doc):
    """True when the config accepts a rate under 1 Mbps, where a socket session
    really paces its frames and may run for hours (at 1 bps, for example)."""
    rate = doc["channel"]["rate_bps"]
    return type(rate) in (int, float) and 0 < rate < 1e6


# "@server" stands for the module's server, drawn as often as the rest together;
# port 1 has no listener
socket_argvs = st.tuples(
    st.just(["client", "--config", "@config", "--mode", "socket", "--out", "@out"]),
    st.one_of(st.just("@server"),
              st.sampled_from(["127.0.0.1:1", "127.0.0.1:99999", "127.0.0.1", ":7925",
                               "127.0.0.1:x"])).map(lambda a: ["--addr", a]),
    st.integers(1, 8).map(lambda n: ["--n", str(n)]),
    st.one_of(st.builds("{}x{}x{}".format, st.integers(1, 3), st.integers(1, 16),
                        st.integers(1, 16)),
              st.sampled_from(["3x0x4", "3x8", "axb"])).map(lambda s: ["--shape", s]),
    optional("--width", st.sampled_from(["8", "16", "32"])),
    optional("--seed", flag_seeds),
).map(lambda parts: [token for part in parts for token in part])


@settings(max_examples=200)
@example(doc=REFERENCE, argv=["client", "--config", "@config", "--mode", "socket", "--out",
                              "@out", "--addr", "@server", "--n", "8", "--shape", "3x16x16",
                              "--width", "32"])
@given(doc=st.one_of(st.just(REFERENCE), configs().filter(lambda doc: not paces_for_long(doc))),
       argv=socket_argvs)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_socket_client_exit_code_contract(server_addr, doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"@config": str(Path(tmp, "config")), "@out": str(Path(tmp, "out")),
                 "@server": server_addr}
        Path(files["@config"]).write_text(json.dumps(doc))
        code, printed = run_checked([files.get(token, token) for token in argv],
                                    codes=(0, 2, 3, 4))
        if code == 0:
            assert not NON_FINITE.search(printed)
            assert not NON_FINITE.search(Path(files["@out"]).read_text())
