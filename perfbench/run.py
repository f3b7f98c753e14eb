"""splitwire benchmark: one workload run, checked, with every metric printed.

    python3 perfbench/run.py --workload loopback-unpaced --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``loopback-unpaced`` - head here, tail server in its own process, reference
  bottleneck frames over loopback with pacing that never sleeps;
* ``loopback-5mbps``   - the same, paced at the reference 5 Mbps;
* ``offline-cli``      - every documented CLI command, in-process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends half the run untraced and half with spans around the
package's public functions, and reports per-layer self times, exact counts
and the tracing overhead. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT_DIR, ROOT, MissingProgram, import_splitwire, machine_record

WORKLOADS = ("loopback-unpaced", "loopback-5mbps", "offline-cli")


def _run(sw, workload: str, seed: int, seconds: float, trace: bool):
    if workload == "offline-cli":
        import offline
        return offline.run(sw, seed, seconds, trace)
    import loopback
    return loopback.run(sw, seed, seconds, trace, paced=workload == "loopback-5mbps")


def _declared() -> dict:
    """Metric names and units from BENCHMARK.json, checked against the code."""
    import loopback
    import offline
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    produced = loopback.METRICS | offline.METRICS
    if per_layer != produced:
        raise ValueError(f"per_layer metrics differ from the code: "
                         f"{sorted(per_layer ^ produced)}")
    return spec


def _print_table(rows) -> None:
    print(f"  {'side':<7} {'span':<28} {'calls':>7} {'p10_ms':>9} {'median_ms':>10} "
          f"{'total_ms':>10}")
    for side, name, calls, fast, med, total in rows:
        print(f"  {side:<7} {name:<28} {calls:>7} {fast:>9.4f} {med:>10.4f} {total:>10.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        sw = import_splitwire()
        spec = _declared()
    except (MissingProgram, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outcome = _run(sw, args.workload, args.seed, args.seconds, bool(args.trace))
    machine = machine_record()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {outcome.failed / max(1, outcome.attempted):.6g} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    for key, value in outcome.report.items():
        if key == "self_time_table":
            print("per-layer self time:")
            _print_table(value)
        else:
            print(f"{key} {value}")
    for failure in outcome.failures[:10]:
        print(f"FAILED {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": machine, "metrics": metrics,
                   "attempted": outcome.attempted, "failures": outcome.failures,
                   "report": outcome.report}, fh, indent=1, default=str)
    if outcome.spans:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
