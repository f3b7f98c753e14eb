"""Command-line front end.

Exit codes: 0 success, 2 usage or configuration problem, 3 data problem,
4 transport problem. Every command is deterministic given its seed and
configuration in simulated modes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import codec, distill, latency, netspec
from .config import Config, load_config, reference_config_path
from .errors import (
    ArgumentError,
    CodecError,
    ProtocolError,
    RangeError,
    ShapeError,
    TransportError,
    check_seed,
)
from .pipeline import wire
from .pipeline.filtergate import gate_metrics
from .pipeline.server import serve
from .pipeline.session import make_stream, run_session, stream_labels
from .tensor import Shape

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4
MAX_RATES = 100_000
MAX_SAMPLES = 10_000_000
MAX_IMAGES = 1_000_000
MAX_EPOCHS = 100_000
# cmd_codec's round-trip error runs over blocks of this many elements, so no
# float64 temporary is as large as the tensor
_ERROR_BLOCK = 1 << 14


def _resolve_config(args) -> Config:
    path = getattr(args, "config", None) or os.environ.get("SPLITWIRE_CONFIG")
    if not path:
        path = reference_config_path()
    return load_config(path)


def _seed(args, cfg: Config) -> int:
    return cfg.seed if args.seed is None else args.seed


def non_negative_int(text: str) -> int:
    """The type of every --seed flag, which follows the config ``seed`` rule."""
    return check_seed("--seed", int(text))


def _parse_rate(token: str, text: str) -> float:
    try:
        rate = float(token)
    except ValueError:
        raise ArgumentError(f"bad rate {token!r} in {text!r}") from None
    if not math.isfinite(rate * 1e6):
        raise ArgumentError(f"rates must be finite in bits per second, got {text!r}")
    return rate


def _range_rates(lo: float, hi: float, step: float, text: str) -> list[float]:
    """lo + k*step up to hi + 1e-9, counted before any is built. The loops settle
    the quotient's rounding on the rates themselves, a step or two either way."""
    end = hi + 1e-9
    n = math.floor(min((end - lo) / step, MAX_RATES)) + 1
    while n > 0 and lo + (n - 1) * step > end:
        n -= 1
    while n <= MAX_RATES and lo + n * step <= end:
        n += 1
    if n > MAX_RATES:
        raise ArgumentError(f"rate range {text!r} gives more than {MAX_RATES} rates")
    return [lo + k * step for k in range(n)]


def _parse_rates_mbps(text: str) -> list[float]:
    """Accepts '0.5..10:0.5' (inclusive range) or a comma list like '1,2,5'."""
    if ".." in text:
        span, _, step_s = text.partition(":")
        if not step_s:
            raise ArgumentError(f"range rates need a step, e.g. 0.5..10:0.5 (got {text!r})")
        lo_s, _, hi_s = span.partition("..")
        lo, hi, step = (_parse_rate(tok, text) for tok in (lo_s, hi_s, step_s))
        if step <= 0 or hi < lo:
            raise ArgumentError(f"bad rate range {text!r}")
        rates = _range_rates(lo, hi, step, text)
    else:
        rates = [_parse_rate(tok, text) for tok in text.split(",") if tok.strip()]
        if not rates:
            raise ArgumentError("no rates given")
    if any(r <= 0 for r in rates):
        raise ArgumentError(f"rates must be positive Mbps values, got {text!r}")
    return rates


def _parse_chw(text: str) -> Shape:
    try:
        return Shape(int(tok) for tok in text.lower().split("x"))
    except (ValueError, ShapeError) as exc:
        raise ArgumentError(f"bad shape {text!r}, expected CxHxW: {exc}") from exc


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port_s = text.rpartition(":")
    if not host or not port_s.isdecimal() or int(port_s) > 65535:
        raise ArgumentError(f"bad address {text!r}, expected HOST:PORT with PORT 0-65535")
    return host, int(port_s)


# --- commands -----------------------------------------------------------------

def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    rates = [r * 1e6 for r in _parse_rates_mbps(args.rates)]
    if args.p_drop is not None and not 0.0 <= args.p_drop <= 1.0:
        raise ArgumentError(f"--p-drop must be in [0, 1], got {args.p_drop}")
    p_drop = args.p_drop if args.p_drop is not None else cfg.filter.analytic_drop_rate()
    rows = latency.sweep(cfg.profile, cfg.sizes, args.width, rates, p_drop,
                         cfg.channel.fixed_latency_s)
    latency.write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows ({len(rates)} rates x "
          f"{len(latency.STRATEGIES)} strategies) to {args.out}")
    return EXIT_OK


def _max_abs_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| of two flat float32 arrays, each difference taken in float64."""
    err = 0.0
    for i in range(0, a.size, _ERROR_BLOCK):
        block = slice(i, i + _ERROR_BLOCK)
        err = max(err, float(np.abs(a[block] - b[block].astype(np.float64)).max()))
    return err


def cmd_codec(args) -> int:
    msg = wire.load_message(args.infile)
    if args.action == "quantize":
        if msg.msg_type is not wire.MsgType.FTENSOR32:
            raise CodecError(f"expected FTENSOR32, got {msg.msg_type.name}")
        tensor = codec.dequantize(msg)
        q = codec.quantize8(tensor) if args.width == 8 else codec.quantize16(tensor)
        wire.save_message(args.out, q)
        report = wire.data_size(q, os.path.getsize(args.infile))
        err = _max_abs_error(codec.dequantize(q).reshape(-1), tensor.reshape(-1))
        print(f"payload_bytes: {report.payload_bytes}")
        print(f"header_bytes: {report.header_bytes}")
        print(f"total_bytes: {report.total_bytes}")
        print(f"ratio_vs_input_file: {report.ratio_vs_reference:.6f}")
        print(f"max_roundtrip_error: {err:.8g}")
        if args.width == 8:
            print(f"scale: {q.scale:.8g} zero_point: {q.zero_point}")
    else:
        tensor = codec.dequantize(msg)
        wire.save_message(args.out, wire.tensor_to_message(tensor))
        width = wire.ELEMENT_BITS[msg.msg_type]
        print(f"dequantized {width}-bit tensor {Shape(tensor.shape)} to {args.out}")
    return EXIT_OK


def cmd_netspec(args) -> int:
    if os.path.sep in args.spec or args.spec.endswith(".json"):
        net = netspec.load_spec_file(args.spec)
    else:
        cfg = _resolve_config(args)
        net = cfg.get_netspec(args.spec)
    in_shape = _parse_chw(args.input)
    tr = netspec.trace(net, in_shape)
    for i, (layer, shape) in enumerate(zip(net.layers, tr.layer_shapes)):
        mark = "  <- bottleneck" if layer.bottleneck else ""
        print(f"layer {i:2d} {layer.kind:<16} -> {shape}{mark}")
    print(f"params: {tr.param_count}")
    print(f"output: {tr.output_shape}")
    if tr.bottleneck_shape is not None:
        ratio = netspec.tensor_ratio(tr.bottleneck_shape, in_shape)
        print(f"bottleneck: {tr.bottleneck_shape}")
        print(f"bottleneck_ratio: {ratio:.4f}")
    return EXIT_OK


def cmd_distill(args) -> int:
    # ~0.1 ms and ~170 bytes of history per epoch, with no other bound
    if args.epochs is not None and args.epochs > MAX_EPOCHS:
        raise ArgumentError(f"--epochs must be at most {MAX_EPOCHS}, got {args.epochs}")
    fx = distill.get_fixture(args.fixture, epochs=args.epochs, seed=args.seed)
    trained, history = distill.train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
    distill.write_history_csv(history, args.out)
    width = fx.student.bottleneck_width
    bound = distill.eckart_young_bound(fx.teacher_matrix, fx.data, width)
    final = distill.evaluate_loss(fx.teacher, trained, fx.data)
    print(f"fixture: {fx.name} (bottleneck width {width})")
    print(f"epochs: {fx.cfg.epochs}")
    print(f"final_loss: {final:.8g}")
    print(f"oracle_bound: {bound:.8g}")
    print(f"history: {args.out}")
    return EXIT_OK


def cmd_filter_metrics(args) -> int:
    cfg = _resolve_config(args)
    if args.n < 1:
        raise ArgumentError(f"--n must be >= 1, got {args.n}")
    if args.n > MAX_SAMPLES:
        raise ArgumentError(f"--n must be at most {MAX_SAMPLES}, got {args.n}")
    gm = gate_metrics(cfg.filter, args.n, _seed(args, cfg))
    print(f"n: {gm.n}")
    print(f"drop_rate: {gm.drop_rate:.6f}")
    print(f"recall_nonempty: {gm.recall_nonempty:.6f}")
    print(f"false_negative_rate: {gm.false_negative_rate:.6f}")
    print(f"empirical_auc: {gm.empirical_auc:.6f}")
    return EXIT_OK


def cmd_serve(args) -> int:
    cfg = _resolve_config(args)
    host, port = _parse_addr(args.addr)
    serve(host, port, cfg.profile, idle_timeout_s=args.idle_timeout)
    return EXIT_OK


def cmd_client(args) -> int:
    cfg = _resolve_config(args)
    if args.n < 1:
        raise ArgumentError(f"--n must be >= 1, got {args.n}")
    if args.n > MAX_IMAGES:
        raise ArgumentError(f"--n must be at most {MAX_IMAGES}, got {args.n}")
    shape = _parse_chw(args.shape)
    seed = _seed(args, cfg)
    if args.mode == "simulated":
        # a simulated session reads only each image's shape and label, so
        # one zero-stride view of a single zero stands in for every image
        blank = np.broadcast_to(np.float32(0), shape.dims)
        images = [(blank, bool(empty))
                  for empty in stream_labels(args.n, cfg.filter.p_empty, seed)]
        addr = None
    else:
        addr = _parse_addr(args.addr)
        wire.check_payload_fits(shape.dims, args.width)
        images = make_stream(args.n, shape, cfg.filter.p_empty, seed)
    log = run_session(images, cfg.profile, cfg.channel, cfg.filter,
                      mode=args.mode, seed=seed, width=args.width,
                      server_addr=addr)
    # a sum of non-negative delays is finite only if every delay is
    if not math.isfinite(sum(r.total for r in log.records)):
        raise ArgumentError("the session's delays overflow to inf under this config")
    log.to_csv(args.out)
    print(f"{len(log.records)} images, {log.total_bytes} bytes sent, "
          f"drop rate {log.drop_rate:.3f}, mean total {log.mean_total:.6f} s")
    print(f"log: {args.out}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitwire",
        description="Split-computing toolkit: delay sweeps, bottleneck codec, "
                    "layer-spec traces, toy distillation, loopback pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="config JSON (default: $SPLITWIRE_CONFIG, "
                                        "then the shipped reference profile)")

    p = sub.add_parser("sweep", help="delay and gain table over data rates")
    add_config(p)
    p.add_argument("--rates", required=True,
                   help="Mbps list '1,2,5' or range '0.5..10:0.5'")
    p.add_argument("--width", type=int, choices=(8, 16, 32), default=8)
    p.add_argument("--p-drop", type=float, default=None,
                   help="prefilter drop probability for SCNF "
                        "(default: analytic rate from the config filter model)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("codec", help="quantize or dequantize a tensor file")
    p.add_argument("action", choices=("quantize", "dequantize"))
    p.add_argument("--in", dest="infile", required=True,
                   help="input wire-message file")
    p.add_argument("--out", required=True, help="output wire-message file")
    p.add_argument("--width", type=int, choices=(8, 16), default=8)
    p.set_defaults(func=cmd_codec)

    p = sub.add_parser("netspec", help="trace shapes and parameters of a layer spec")
    add_config(p)
    p.add_argument("--spec", required=True, help="built-in name or JSON path")
    p.add_argument("--input", required=True, help="input shape CxHxW")
    p.set_defaults(func=cmd_netspec)

    p = sub.add_parser("distill", help="train a toy bottleneck student")
    p.add_argument("--fixture", required=True,
                   help=f"one of {', '.join(distill.fixture_names())}")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--out", required=True, help="loss-history CSV path")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("filter-metrics", help="Monte Carlo prefilter statistics")
    add_config(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.set_defaults(func=cmd_filter_metrics)

    p = sub.add_parser("serve", help="run the tail-side server (blocking)")
    add_config(p)
    p.add_argument("--addr", required=True, help="bind address HOST:PORT")
    p.add_argument("--idle-timeout", type=float, default=10.0,
                   help="close a connection silent for this many seconds (default 10), "
                        "so stalled peers cannot hold every handler thread")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="run a head-side session and write its log")
    add_config(p)
    p.add_argument("--addr", default="127.0.0.1:7925", help="server HOST:PORT")
    p.add_argument("--mode", choices=("simulated", "socket"), default="socket")
    p.add_argument("--n", type=int, required=True, help="number of images")
    p.add_argument("--shape", default="3x64x64", help="bottleneck tensor shape CxHxW")
    p.add_argument("--width", type=int, choices=(8, 16, 32), default=8)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--out", required=True, help="session-log CSV path")
    p.set_defaults(func=cmd_client)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ShapeError, RangeError, CodecError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    # after TransportError, which is an OSError: what is left is a file that
    # cannot be read or written, or a size too large for memory or a float
    except (OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
