#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``serve-interactive`` — open-loop Poisson traffic of quiz sessions,
  pings, cached lints and small binary32 ``op.eval`` batches against
  ``repro serve``;
- ``serve-analyze`` — open-loop, compute-heavy traffic: binary64
  ``op.eval`` batches over every op, rounding mode and FTZ/DAZ cell, and
  witness-searching lints that always miss the cache;
- ``sweep-b64`` — back-to-back sharded binary64 conformance sweeps on a
  two-worker engine.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run with every layer's entry points wrapped
in spans and reports per-layer metrics.  Either way a correctness gate
runs outside the timed window, every line of output names its metric
and unit, and the last line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  A run that passes
its wall-clock bound is killed, names the stalled phase, and exits 3.
Run without ``--workload``, the untraced serve runs also climb a rate
ladder that finds the highest offered rate meeting the workload's p99
limit (``capacity_rps``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC, Watchdog, keep_awake, load_config, stamp  # noqa: E402

WORKLOADS = ("serve-interactive", "serve-analyze", "sweep-b64")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "service.queue_ms.p50": "ms",
    "service.queue_ms.p99": "ms",
    "service.handle_ms.p50": "ms",
    "service.handle_ms.p99": "ms",
    "service.wire_ms.p50": "ms",
    "service.batch_lanes_mean": "lanes",
    "service.lint_cache_hit_ratio": "ratio",
    "service.errors": "count",
    "service.limited": "count",
    "service.shed": "count",
    "telemetry.sessions": "count",
    "telemetry.absorb_busy_s": "s",
    "softfloat.calls": "count",
    "softfloat.lanes": "lanes",
    "softfloat.busy_s": "s",
    "softfloat.ns_per_lane": "ns/lane",
    "softfloat.scalar_lane_share": "ratio",
    "oracle.evals": "count",
    "oracle.busy_s": "s",
    "oracle.us_per_eval": "us/eval",
    "oracle.cases_busy_s": "s",
    "engine.shards": "count",
    "engine.batches": "count",
    "engine.retries": "count",
    "engine.timeouts": "count",
    "engine.worker_deaths": "count",
    "engine.serial_fallbacks": "count",
    "engine.overhead_s": "s",
    "engine.efficiency": "ratio",
    "staticfp.lint.busy_s": "s",
    "staticfp.analyze.busy_s": "s",
    "staticfp.witness.busy_s": "s",
    "staticfp.witness.unresolved_ratio": "ratio",
    "optsim.eval.busy_s": "s",
    "optsim.eval.lanes": "lanes",
    "sweep.slice_busy_s": "s",
    "loadgen.late_ms.p99": "ms",
    "loadgen.late_ms.max": "ms",
    "loadgen.sent": "count",
    "trace.overhead_ratio": "ratio",
}


def layer_problems(measured: dict) -> list[str]:
    """Every per-layer metric must be measured: a name a run left out
    fails the run rather than reading as zero."""
    problems = []
    for name in PER_LAYER:
        if name not in measured:
            problems.append(f"{name}: not measured")
        elif measured[name] is None:
            problems.append(f"{name}: too few samples for this tail")
    return problems


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            config: dict, capacity: bool) -> dict:
    """One measured run; returns its result record."""
    import serve
    import sweep

    watchdog = Watchdog(config["run_deadline_s"])
    keep_awake(watchdog)
    try:
        if workload == "sweep-b64":
            result = sweep.run(seed, seconds, trace, config, watchdog)
        else:
            result = serve.run(workload, seed, seconds, trace, config,
                               watchdog, capacity=capacity)
        watchdog.phase("report", 30)
        record = {**stamp(workload, seed, int(trace)), **result}
    finally:
        watchdog.stop()
    problems = record["problems"]
    if trace:
        layers = record["layers"]
        values = {name: layers["metrics"].get(name) for name in PER_LAYER}
        problems.extend(layer_problems(layers["metrics"]))
        if layers["foreign_trace_ids"]:
            problems.append(
                f"{layers['foreign_trace_ids']} spans carry a trace id"
                " the generator never sent"
            )
        units = PER_LAYER
    else:
        values = record["end_to_end"]
        units = END_TO_END
    record["metrics"] = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    record["correct"] = not problems and record["failed"] == 0
    return record


def print_record(record: dict) -> None:
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    print(f"== {head}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {_fmt(metric['value']):>14s} {metric['unit']}")
    for name, value in sorted(record.get("extra", {}).items()):
        if isinstance(value, (dict, list)):
            print(f"  {name}: {json.dumps(value)}")
        else:
            print(f"  {name:36s} {_fmt(value):>14s}")
    print(f"  setup samples (s): {record['setup_samples_s']}")
    print(f"  attempted={record['attempted']} failed={record['failed']}"
          f" correct={record['correct']}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("record: " + json.dumps(record, sort_keys=True, default=str))


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def findings(records: list[dict]) -> list[str]:
    """What the traced runs say about where the time goes."""
    by = {(r["workload"], r["trace"]): r for r in records}
    lines = []
    inter, inter_t = by.get(("serve-interactive", 0)), by.get(
        ("serve-interactive", 1))
    if inter and inter_t:
        handle = inter_t["metrics"]["service.handle_ms.p50"]["value"]
        latency = inter["metrics"]["latency_p50_ms"]["value"]
        lines.append(f"serve-interactive: handle p50 {handle:.3f} ms is"
                     f" {handle / latency:.1%} of latency p50 {latency:.3f} ms")
        zero = [n for n in PER_LAYER if n.startswith(("oracle.", "engine."))
                and inter_t["metrics"][n]["value"]]
        lines.append("serve-interactive: oracle.* and engine.* "
                     + ("all read zero" if not zero else f"nonzero: {zero}"))
    sweep_t = by.get(("sweep-b64", 1))
    if sweep_t:
        m = {k: v["value"] for k, v in sweep_t["metrics"].items()}
        total = m["sweep.slice_busy_s"]
        share = (m["oracle.busy_s"] + m["softfloat.busy_s"]
                 + m["oracle.cases_busy_s"]) / total if total else 0.0
        lines.append(f"sweep-b64: oracle+cases+softfloat self time is"
                     f" {share:.1%} of {total:.3f} s serial slice time;"
                     f" scalar lane share {m['softfloat.scalar_lane_share']:.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = load_config()
    seconds = args.seconds or json.loads(
        (HERE.parent / "BENCHMARK.json").read_text()
    )["run_seconds"]

    if args.workload:
        plan = [(args.workload, bool(args.trace))]
    else:
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]

    records = []
    for workload, trace in plan:
        # the capacity ladder belongs to the every-workload report only
        record = run_one(workload, args.seed, seconds, trace, config,
                         capacity=not args.workload and not trace)
        records.append(record)
        print_record(record)
    for line in findings(records):
        print("finding: " + line)

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}{'.traced' if r['trace'] else ''}/{name}":
                   metric for r in records
                   for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
