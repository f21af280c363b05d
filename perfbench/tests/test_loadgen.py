"""The benchmark's own tests: an honest open-loop generator and correct
self time.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from loadgen import open_loop, poisson_schedule, quantile, tail_quantile  # noqa: E402
from spans import (  # noqa: E402
    ENGINE_COUNTS,
    Recorder,
    install_layers,
    self_times,
    summarize,
)


# -- the Poisson schedule ------------------------------------------------

def test_schedule_is_deterministic_per_seed():
    assert poisson_schedule(100, 5, 7) == poisson_schedule(100, 5, 7)
    assert poisson_schedule(100, 5, 7) != poisson_schedule(100, 5, 8)


def test_schedule_has_the_offered_rate():
    offsets = poisson_schedule(200, 50, 1)
    assert abs(len(offsets) / 50 - 200) < 200 * 0.05
    assert offsets == sorted(offsets)
    assert 0 < offsets[0] and offsets[-1] < 50


# -- latency from the due time, lateness reported ------------------------

def test_latency_is_timed_from_the_due_time_and_lateness_is_reported():
    """The first request blocks the generator for 100 ms; the second was
    due 10 ms in.  Its latency must include the 90 ms it could not be
    sent, and the generator must report itself about 90 ms late."""
    stall = 0.1

    async def issue(index, due):
        started = time.perf_counter()
        if index == 0:
            time.sleep(stall)  # blocks the event loop, as a stall would
        await asyncio.sleep(0.001)
        done = time.perf_counter()
        return {"from_due": done - due, "from_start": done - started}

    late, results = asyncio.run(open_loop([0.0, 0.01], issue, lead=0.0))
    assert late[1] >= stall - 0.01 - 0.005
    assert results[1]["from_due"] >= late[1]
    assert results[1]["from_due"] - results[1]["from_start"] >= 0.08


def test_open_loop_does_not_wait_for_replies():
    """A slow reply must not delay the next send."""

    async def issue(index, due):
        sent = time.perf_counter()
        await asyncio.sleep(0.2 if index == 0 else 0.0)
        return sent

    started = time.perf_counter()
    late, sent = asyncio.run(open_loop([0.0, 0.02, 0.04], issue, lead=0.0))
    assert sent[2] - started < 0.1
    assert max(late) < 0.05


# -- tail percentiles need samples beyond them ---------------------------

def test_tail_needs_ten_samples_beyond_it():
    assert tail_quantile(list(range(999)), 0.99) is None
    assert tail_quantile(list(range(1000)), 0.99) == quantile(
        list(range(1000)), 0.99
    )
    assert tail_quantile(list(range(100)), 0.9) == 89
    assert tail_quantile(list(range(99)), 0.9) is None
    assert tail_quantile([], 0.5) is None


def test_quantile_is_nearest_rank():
    assert quantile([3, 1, 2], 0.5) == 2
    assert quantile([1, 2, 3, 4], 0.5) == 2
    assert quantile([5], 0.99) == 5


# -- self time from nested spans -----------------------------------------

def _record(sid, parent, name, t0, t1, info=None):
    return (sid, parent, name, t0, t1, None, info)


def test_self_time_subtracts_children():
    records = [
        _record(1, 0, "staticfp.lint", 0, 100),
        _record(2, 1, "staticfp.analyze", 10, 40),
        _record(3, 1, "staticfp.witness", 50, 90),
        _record(4, 3, "optsim.eval", 60, 70),
    ]
    assert self_times(records) == {1: 30, 2: 30, 3: 30, 4: 10}


def test_self_time_counts_overlapping_children_once():
    records = [
        _record(1, 0, "engine.run", 0, 100),
        _record(2, 1, "softfloat.run_packed", 10, 60),
        _record(3, 1, "softfloat.run_packed", 40, 80),
        _record(4, 1, "softfloat.run_packed", 90, 120),  # runs past parent
    ]
    assert self_times(records)[1] == 100 - 70 - 10


def test_recorder_nests_spans_and_summary_adds_self_times():
    recorder = Recorder()

    def inner():
        time.sleep(0.01)

    wrapped_inner = recorder.wrap("oracle.operation", inner)

    def outer():
        wrapped_inner()
        wrapped_inner()
        time.sleep(0.01)

    recorder.wrap("bench.slice", outer)()
    by_name = {r[2]: r for r in recorder.records}
    assert by_name["oracle.operation"][1] == by_name["bench.slice"][0]
    summary = summarize(recorder.records, root="bench.slice")
    oracle = summary["metrics"]["oracle.busy_s"]
    assert summary["metrics"]["oracle.evals"] == 2
    assert 0.018 < oracle < summary["root_busy_s"]
    slice_self = summary["root_busy_s"] - oracle
    assert 0.008 < slice_self < 0.05


def test_nested_backend_calls_count_lanes_once():
    records = [
        _record(1, 0, "softfloat.run_packed", 0, 100, (50, True)),
        _record(2, 1, "softfloat.run_packed", 10, 90, (50, False)),
        _record(3, 0, "softfloat.run_packed", 200, 250, (30, False)),
    ]
    metrics = summarize(records)["metrics"]
    assert metrics["softfloat.calls"] == 2
    assert metrics["softfloat.lanes"] == 80
    assert metrics["softfloat.scalar_lane_share"] == 50 / 80
    assert metrics["softfloat.busy_s"] == 150 / 1e9


def test_engine_counts_come_from_engine_run_spans():
    records = [
        _record(1, 0, "engine.run", 0, 100, (10, 10, 1, 0, 0, 0)),
        _record(2, 0, "engine.run", 200, 300, (4, 0, 0, 0, 0, 0)),
    ]
    summary = summarize(records)
    assert summary["engine_runs"] == 2
    assert summary["metrics"]["engine.shards"] == 14
    assert summary["metrics"]["engine.batches"] == 10
    assert summary["metrics"]["engine.retries"] == 1
    untouched = summarize([])["metrics"]
    assert all(untouched[f"engine.{key}"] == 0 for key in ENGINE_COUNTS)


def test_engine_span_reads_the_run_report():
    from repro.engine import Engine, EngineConfig
    from repro.engine.adapters import run_corpus_sharded

    recorder = Recorder()
    undo = install_layers(recorder, ("engine",))
    try:
        run_corpus_sharded(Engine(EngineConfig(workers=0,
                                               cache_enabled=False)))
    finally:
        undo()
    (record,) = [r for r in recorder.records if r[2] == "engine.run"]
    shards, *pool = record[6]
    assert shards > 0 and pool == [0] * 5  # serial: no pool


def test_a_per_layer_metric_left_out_fails_the_run():
    from run import PER_LAYER, layer_problems

    measured = dict.fromkeys(PER_LAYER, 0.0)
    assert layer_problems(measured) == []
    del measured["engine.shards"]
    measured["service.queue_ms.p99"] = None
    assert layer_problems(measured) == [
        "service.queue_ms.p99: too few samples for this tail",
        "engine.shards: not measured",
    ]


# -- a stalled run fails, naming its phase --------------------------------

def test_watchdog_fails_a_stalled_run_and_names_the_phase():
    import subprocess

    script = (
        "import sys, time; sys.path.insert(0, %r)\n"
        "from common import Watchdog\n"
        "dog = Watchdog(60)\n"
        "dog.phase('load', 0.3)\n"
        "time.sleep(10)\n"
        "print('not reached')\n"
    ) % str(HERE)
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert time.monotonic() - started < 5
    assert done.returncode == 3
    assert "stalled in phase 'load'" in done.stderr
    assert "not reached" not in done.stdout
