"""The ``sweep-b64`` workload, driven from the benchmark process.

The program runs in ``sweep_host.py`` child processes; this side times
their set-up from launch to their first completed sweep, relays their
progress to the watchdog, and turns their output into metrics.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time

from common import (
    HERE,
    ROOT,
    RUN_DIR,
    kill_group,
    nproc,
    program_env,
)


class Child:
    """One ``sweep_host.py`` process and its progress lines."""

    def __init__(self, watchdog, args: list[str]) -> None:
        RUN_DIR.mkdir(exist_ok=True)
        self.log = open(RUN_DIR / "sweep.log", "ab")
        self.watchdog = watchdog
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "sweep_host.py"), *args],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self.log, process_group=0,
        )
        watchdog.adopt(self.process)

    def wait_for(self, marker: str, phase_bounds: dict) -> float:
        """Read progress lines until ``marker``; returns its arrival
        time.  Each ``phase <name>`` line moves the watchdog on."""
        while True:
            ready, _, _ = select.select([self.process.stdout], [], [], 1.0)
            if not ready:
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"sweep process exited ({self.process.returncode})"
                        f" before {marker!r}"
                    )
                continue
            line = self.process.stdout.readline()
            arrived = time.perf_counter()
            if not line:
                raise RuntimeError(f"sweep process closed before {marker!r}")
            text = line.decode().strip()
            if text == marker:
                return arrived
            if text.startswith("phase "):
                name = text.split(" ", 1)[1]
                self.watchdog.phase(f"sweep: {name}",
                                    phase_bounds.get(name, 60))

    def finish(self) -> None:
        code = self.process.wait(30)
        kill_group(self.process)  # workers it may have left behind
        self.process.stdout.close()
        self.log.close()
        self.watchdog.release(self.process)
        if code != 0:
            raise RuntimeError(f"sweep process exited with code {code}")


def run(seed: int, seconds: float, trace: bool, config: dict,
        watchdog) -> dict:
    cfg = config["sweep-b64"]
    workers = min(cfg["max_workers"], nproc())
    base = ["--seed", str(seed), "--budget", str(cfg["budget"]),
            "--warm-budget", str(cfg["warm_budget"]),
            "--ops", ",".join(cfg["ops"]), "--workers", str(workers)]
    out = RUN_DIR / "sweep-result.json"
    bounds = {"measure": seconds + 60, "trace": 60, "sharded": 60,
              "serial-runner": 60, "serial-slices": 60,
              "traced-slices": 60}

    setups = []
    launches = 1 if trace else config["setup_launches"]
    for attempt in range(launches):
        watchdog.phase(f"setup (launch {attempt + 1})", 60)
        last = attempt == launches - 1
        extra = (["--seconds", str(seconds), "--out", str(out)]
                 + (["--trace"] if trace else [])) if last else ["--setup-only"]
        child = Child(watchdog, base + extra)
        setups.append(child.wait_for("first-op", bounds) - child.launched)
        if not last:
            child.finish()
    child.wait_for("done", bounds)
    watchdog.phase("sweep: exit", 30)
    child.finish()
    data = json.loads(out.read_text())

    if trace:
        return _traced(data, cfg, setups)
    jobs = data["jobs"]
    problems = [f"job seed {job['seed']}: {p}"
                for job in jobs for p in job["problems"]]
    evals = sum(job["evals"] for job in jobs)
    busy = sum(job["latency_s"] for job in jobs)
    latencies_ms = [job["latency_s"] * 1e3 for job in jobs]
    return {
        "attempted": evals,
        "failed": sum(job["evals"] for job in jobs if job["problems"]),
        "problems": problems,
        "setup_samples_s": setups,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": statistics.median(latencies_ms),
            "peak_rss_mb": data["peak_rss_mb"],
        },
        "extra": {
            "steal_share": data["steal_share"],
            "evals_per_s": evals / busy if busy else 0.0,
            "jobs": len(jobs),
            "evals_per_job": cfg["budget"] * len(cfg["ops"]),
            "workers": workers,
            "error_rate": (sum(1 for job in jobs if job["problems"])
                           / len(jobs)),
        },
    }


#: the service layer's metrics: no service runs in this workload
NO_SERVICE = (
    "service.queue_ms.p50", "service.queue_ms.p99", "service.handle_ms.p50",
    "service.handle_ms.p99", "service.wire_ms.p50",
    "service.batch_lanes_mean", "service.lint_cache_hit_ratio",
    "service.errors", "service.limited", "service.shed",
)


def _traced(data: dict, cfg: dict, setups: list) -> dict:
    summary = data["spans"]
    metrics = {
        **dict.fromkeys(NO_SERVICE, 0.0),
        # closed loop: a job is due when the previous one ends
        "loadgen.late_ms.p99": 0.0,
        "loadgen.late_ms.max": 0.0,
        "loadgen.sent": data["cycles"],
        "trace.overhead_ratio": summary["overhead_ratio"],
        "sweep.slice_busy_s": summary["root_busy_s"],
        **data["engine"],
        **summary["metrics"],
    }
    return {
        "attempted": data["evals"],
        "failed": data["evals"] if data["problems"] else 0,
        "problems": data["problems"],
        "setup_samples_s": setups,
        "layers": {"metrics": metrics, "spans": summary["spans"],
                   "foreign_trace_ids": 0},
        "extra": {
            "trace_cycles": data["cycles"],
            "serial_busy_s": data["serial_busy_s"],
            "traced_busy_s": data["traced_busy_s"],
        },
    }
