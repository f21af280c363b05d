"""The ``sweep-b64`` program process: sharded binary64 conformance sweeps.

Usage::

    python perfbench/sweep_host.py --seed N --budget B --ops add,mul,...
        --workers W --warm-budget B0 (--setup-only | --seconds S --out PATH
        [--trace])

Every launch first runs one small sweep (``--warm-budget`` evaluations
per op) and prints ``first-op``: the benchmark times set-up from launch
to that line.  ``--setup-only`` exits there.  Otherwise the process runs
``run_conformance_sharded`` on binary64 — all five rounding modes, with
FTZ+DAZ off and on, ``engine_backend="auto"``, an uncached ``Engine`` —
job after job for ``--seconds``, each job on its own derived seed, and
writes per-job latencies and checks to ``--out``.

With ``--trace`` it instead repeats a trace cycle for ``--seconds``: one
sharded job with ``Engine.run`` wrapped, the same sweep through the
serial runner (whose canonical JSON must match byte for byte), the same
slices run serially through ``run_op_slice`` untraced, and then once
more with every layer wrapped, each slice under a ``bench.slice`` span,
to split the slice time into layer self times.  Wrappers are removed
before the next sharded job, so workers never run wrapped code.
Progress is announced as ``phase <name>`` lines.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from common import read_steal, steal_share  # noqa: E402


def say(line: str) -> None:
    print(line, flush=True)


def job_seed(seed: int, index: int) -> int:
    from repro.engine.tasks import derive_seed

    return derive_seed(seed, "sweep-b64", index) & 0x7FFFFFFF


def sweep(engine, ops, budget: int, seed: int):
    from repro.engine.adapters import run_conformance_sharded
    from repro.softfloat.formats import BINARY64

    return run_conformance_sharded(
        BINARY64, ops, engine, budget=budget, seed=seed,
        env_combos=((False, False), (True, True)), engine_backend="auto",
    )


def check(report, ops, budget: int) -> list[str]:
    problems = []
    if not report.clean:
        problems.append(f"{len(report.discrepancies)} discrepancies")
    if report.total_evals != budget * len(ops):
        problems.append(
            f"evals {report.total_evals} != budget {budget * len(ops)}"
        )
    return problems


def peak_rss_mb(workers: int) -> float:
    """This process's peak plus ``workers`` times the largest worker's
    (workers run side by side; ``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def measure(args, engine, ops) -> dict:
    jobs = []
    steal = read_steal()
    started = time.perf_counter()
    for index in itertools.count():
        if index and time.perf_counter() - started >= args.seconds:
            break
        seed = job_seed(args.seed, index)
        t0 = time.perf_counter()
        report = sweep(engine, ops, args.budget, seed)
        latency = time.perf_counter() - t0
        jobs.append({
            "seed": seed,
            "latency_s": latency,
            "evals": report.total_evals,
            "problems": check(report, ops, args.budget),
        })
    return {"jobs": jobs, "peak_rss_mb": peak_rss_mb(args.workers),
            "steal_share": steal_share(steal, read_steal())}


class JobTap:
    """An engine that keeps the jobs it is asked to run."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.jobs = []

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def run(self, job):
        self.jobs.append(job)
        return self.engine.run(job)


def traced(args, engine, ops) -> dict:
    """Trace cycles, each on a fresh job seed, until ``--seconds``."""
    recorder = spans.Recorder()
    cycles = []
    started = time.perf_counter()
    for index in itertools.count():
        if index and time.perf_counter() - started >= args.seconds:
            break
        cycles.append(trace_cycle(args, engine, ops, recorder,
                                  job_seed(args.seed, index)))
    summary = spans.summarize(recorder.records, root="bench.slice")
    serial_busy = sum(c["serial_busy_s"] for c in cycles)
    traced_busy = sum(c["traced_busy_s"] for c in cycles)
    # the same slices timed untraced and traced: what the wrappers cost
    summary["overhead_ratio"] = (traced_busy - serial_busy) / serial_busy
    capacity = sum(args.workers * c["elapsed_s"] for c in cycles)
    return {
        "problems": [p for c in cycles for p in c["problems"]],
        "cycles": len(cycles),
        "engine": {
            "engine.overhead_s": capacity - serial_busy,
            "engine.efficiency": serial_busy / capacity if capacity else 0.0,
        },
        "serial_busy_s": serial_busy,
        "traced_busy_s": traced_busy,
        "spans": summary,
        "evals": sum(c["evals"] for c in cycles),
        "peak_rss_mb": peak_rss_mb(args.workers),
    }


def trace_cycle(args, engine, ops, recorder, seed: int) -> dict:
    """One sharded job, the serial runner on the same sweep, and its
    slices run serially — untraced, then with every layer wrapped."""
    from repro.fpenv.rounding import RoundingMode
    from repro.oracle.runner import run_conformance, run_op_slice
    from repro.softfloat.formats import BINARY64

    say("phase sharded")
    tap = JobTap(engine)
    undo = spans.install_layers(recorder, ("engine",))
    try:
        report = sweep(tap, ops, args.budget, seed)
    finally:
        undo()
    elapsed = engine.last_report.elapsed_seconds
    problems = check(report, ops, args.budget)
    # the slices the sharded job ran, in its order
    (job,) = tap.jobs

    say("phase serial-runner")
    serial = run_conformance(
        BINARY64, ops, budget=args.budget, seed=seed,
        env_combos=((False, False), (True, True)), engine_backend="auto",
    )
    if serial.canonical_json() != report.canonical_json():
        problems.append(
            f"seed {seed}: sharded report differs from the serial runner"
        )

    def run_slices(wrap_each):
        busy = 0.0
        for shard in job.shards:
            params = shard.spec.params
            matrix = tuple(itertools.product(
                (RoundingMode(v) for v in params["modes"]),
                [tuple(combo) for combo in params["env_combos"]],
            ))
            t0 = time.perf_counter()
            with wrap_each():
                run_op_slice(
                    BINARY64, params["op"], args.budget, seed, matrix,
                    params["tininess"], params["native"],
                    params["max_discrepancies"], params["case_lo"],
                    params["case_hi"], engine_backend="auto",
                )
            busy += time.perf_counter() - t0
        return busy

    say("phase serial-slices")
    serial_busy = run_slices(contextlib.nullcontext)

    say("phase traced-slices")
    undo = spans.install_layers(
        recorder, ("softfloat", "oracle", "staticfp", "telemetry")
    )
    try:
        traced_busy = run_slices(lambda: recorder.span("bench.slice"))
    finally:
        undo()
    return {
        "problems": problems,
        "elapsed_s": elapsed,
        "serial_busy_s": serial_busy,
        "traced_busy_s": traced_busy,
        "evals": report.total_evals,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--warm-budget", type=int, required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    ops = args.ops.split(",")

    from repro.engine import Engine, EngineConfig

    engine = Engine(EngineConfig(workers=args.workers, cache_enabled=False))
    warm = sweep(engine, ops, args.warm_budget, job_seed(args.seed, -1))
    say("first-op")
    if args.setup_only:
        return 0 if warm.clean else 1
    say("phase trace" if args.trace else "phase measure")
    result = traced(args, engine, ops) if args.trace else measure(
        args, engine, ops
    )
    args.out.write_text(json.dumps(result))
    say("done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
