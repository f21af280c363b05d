"""Layer spans recorded from outside the program.

The benchmark never edits the program.  For a traced run it replaces
the public entry points of each layer with thin wrappers that record a
span per call — name, parent span, start, end, and the request's trace
id — into an in-memory list, and summarises them when the run ends.

A span's parent is the innermost span open on the same thread when it
started, so a ``lint`` call that runs ``analyze`` and ``find_witness``
owns both as children.  A layer's *self time* is the time its spans
were open minus the part of that time their children cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "self_times", "install_layers", "summarize", "dump",
           "load"]


class Recorder:
    """Collects span records ``(sid, parent, name, t0, t1, trace, info)``.

    ``t0``/``t1`` are ``monotonic_ns`` readings — one clock for every
    process on the host, so the benchmark can cut a server's spans to
    its own timed window; ``info`` is whatever the wrapper's
    ``describe`` hook returned (lane counts, outcomes).
    ``trace_source`` returns the trace id of the request the current
    thread works for, or ``None``.
    """

    def __init__(self, trace_source=None) -> None:
        self.records: list[tuple] = []
        self.trace_source = trace_source or (lambda: None)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int, int]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.monotonic_ns()

    def close(self, handle: tuple[int, int, int], name: str,
              info=None) -> None:
        t1 = time.monotonic_ns()
        sid, parent, t0 = handle
        self._stack().pop()
        self.records.append(
            (sid, parent, name, t0, t1, self.trace_source(), info)
        )

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, describe=None):
        """``fn`` with a span around every call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            handle = recorder.open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                info = describe(args, kwargs, result) if describe else None
                recorder.close(handle, name, info)

        return wrapper

    def wrap_generator(self, name: str, fn):
        """``fn`` returns a generator: time each step as its own span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stepped():
                while True:
                    handle = recorder.open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        recorder.close(handle, name)
                        return
                    except BaseException:
                        recorder.close(handle, name)
                        raise
                    recorder.close(handle, name)
                    yield item

            return stepped()

        return wrapper


class _Span:
    __slots__ = ("recorder", "name", "handle")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        self.handle = self.recorder.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.close(self.handle, self.name)


def self_times(records) -> dict[int, int]:
    """Self time (ns) per span id.

    A span's children may overlap each other (a parent that fans work
    out), so the covered part is the *union* of the children's
    intervals, clipped to the parent's own interval.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _name, t0, t1, *_ in records:
        if parent:
            children[parent].append((t0, t1))
    result: dict[int, int] = {}
    for sid, _parent, _name, t0, t1, *_ in records:
        covered = 0
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        result[sid] = (t1 - t0) - covered
    return result


# ----------------------------------------------------------------------
# which entry points belong to which layer
# ----------------------------------------------------------------------

class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Point every loaded ``repro`` module's reference to
        ``original`` at ``replacement`` (modules import these functions
        by name)."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _install_softfloat(recorder: Recorder, patches: _Patches) -> None:
    from repro.softfloat.backend import AutoBackend, ScalarBackend
    from repro.softfloat.batch import BatchBackend
    from repro.softfloat.nativefast import NativeBackend

    def describe_plain(args, kwargs, result):
        return (len(args[3][0]), False)

    def describe_auto(args, kwargs, result):
        backend, op, fmt, operands, mode, ftz, daz = args[:7]
        dst_fmt = args[7] if len(args) > 7 else kwargs.get("dst_fmt")
        routed = backend.select(op, fmt, mode, ftz, daz, dst_fmt)
        return (len(operands[0]), routed.name == "scalar")

    for cls in (ScalarBackend, BatchBackend, NativeBackend):
        patches.set(cls, "run_packed", recorder.wrap(
            "softfloat.run_packed", cls.run_packed, describe_plain
        ))
    patches.set(AutoBackend, "run_packed", recorder.wrap(
        "softfloat.run_packed", AutoBackend.run_packed, describe_auto
    ))


def _install_oracle(recorder: Recorder, patches: _Patches) -> None:
    import repro.oracle.cases as cases
    import repro.oracle.exact as exact
    import repro.oracle.runner  # noqa: F401 (holds the by-name imports)

    patches.everywhere(
        exact.oracle_operation,
        recorder.wrap("oracle.operation", exact.oracle_operation),
    )
    patches.everywhere(
        cases.generate_cases,
        recorder.wrap_generator("oracle.cases", cases.generate_cases),
    )


def _install_staticfp(recorder: Recorder, patches: _Patches) -> None:
    import repro.staticfp.safety  # noqa: F401 (holds the by-name imports)

    def outcome(args, kwargs, result):
        return getattr(result, "outcome", None)

    def one_lane(args, kwargs, result):
        return 1

    def binding_lanes(args, kwargs, result):
        return len(args[1])

    def packed_lanes(args, kwargs, result):
        return int(len(result[0])) if result is not None else 0

    for module, attr, name, describe in (
        ("repro.staticfp.lints", "lint", "staticfp.lint", None),
        ("repro.staticfp.analyze", "analyze", "staticfp.analyze", None),
        ("repro.staticfp.witness", "find_witness", "staticfp.witness",
         outcome),
        ("repro.optsim.evaluator", "evaluate", "optsim.eval", one_lane),
        ("repro.optsim.batch_eval", "evaluate_many", "optsim.eval",
         binding_lanes),
        ("repro.optsim.batch_eval", "evaluate_lanes", "optsim.eval",
         packed_lanes),
        ("repro.optsim.guided", "_eval_capture", "optsim.eval", one_lane),
    ):
        # by module path: a package may re-export a function under its
        # submodule's name (``repro.staticfp.analyze``)
        original = getattr(importlib.import_module(module), attr)
        patches.everywhere(original, recorder.wrap(name, original, describe))


def _install_telemetry(recorder: Recorder, patches: _Patches) -> None:
    import repro.service.server  # noqa: F401 (holds merge_metric by name)
    import repro.telemetry.merge as merge
    from repro.telemetry.runtime import Telemetry

    patches.set(Telemetry, "create", staticmethod(
        recorder.wrap("telemetry.create", Telemetry.create)
    ))
    patches.everywhere(
        merge.merge_metric,
        recorder.wrap("telemetry.merge_metric", merge.merge_metric),
    )


#: per-run engine counts an ``engine.run`` span carries, in this order:
#: ``shards`` from the ``RunReport``, the rest from its ``PoolStats``
#: (zero when the job ran serially, without a pool)
ENGINE_COUNTS = ("shards", "batches", "retries", "timeouts",
                 "worker_deaths", "serial_fallbacks")


def _install_engine(recorder: Recorder, patches: _Patches) -> None:
    from repro.engine.engine import Engine

    def counts(args, kwargs, result):
        report = args[0].last_report
        if report is None:
            return None
        return (report.shards, *(getattr(report.pool, key, 0)
                                 for key in ENGINE_COUNTS[1:]))

    patches.set(Engine, "run",
                recorder.wrap("engine.run", Engine.run, counts))


_INSTALLERS = {
    "softfloat": _install_softfloat,
    "oracle": _install_oracle,
    "staticfp": _install_staticfp,
    "telemetry": _install_telemetry,
    "engine": _install_engine,
}


def install_layers(recorder: Recorder, layers=tuple(_INSTALLERS)):
    """Wrap the public entry points of the named layers; returns a
    function that puts the originals back."""
    patches = _Patches()
    for layer in layers:
        _INSTALLERS[layer](recorder, patches)
    return patches.undo


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------

def calibrate_span_cost() -> float:
    """Seconds one recorded span adds over a bare call (median of 5)."""
    rounds = 20000
    recorder = Recorder()

    def noop():
        return None

    wrapped = recorder.wrap("calibrate", noop)
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(rounds):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(rounds):
            wrapped()
        traced = time.perf_counter() - started
        samples.append(max(0.0, traced - bare) / rounds)
        recorder.records.clear()
    return sorted(samples)[2]


def dump(records, path) -> None:
    """Write span records as JSON (``info`` kept only if it is plain)."""
    def plain(info):
        return info if isinstance(info, (int, float, str, tuple, list,
                                         type(None))) else None

    with open(path, "w") as handle:
        json.dump([(*record[:6], plain(record[6])) for record in records],
                  handle)


def load(path, since_ns: int = 0, until_ns: int | None = None) -> list:
    """Span records from :func:`dump` that started inside the window."""
    with open(path) as handle:
        records = json.load(handle)
    return [
        tuple(record) for record in records
        if record[3] >= since_ns and (until_ns is None or record[3] < until_ns)
    ]


def summarize(records, *, root: str | None = None) -> dict:
    """Per-layer totals from span records.

    ``root`` names a benchmark-owned span that encloses the measured
    work; its total duration is reported as ``root_busy_s`` so callers
    can compare layer self time with the whole.
    """
    selfs = self_times(records)
    names = {sid: name for sid, _p, name, *_ in records}
    busy: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    sf_calls = sf_lanes = sf_scalar = 0
    optsim_lanes = 0
    unresolved = 0
    engine_counts = []
    root_busy = 0.0
    traces = set()
    for sid, parent, name, t0, t1, trace, info in records:
        if isinstance(info, list):
            info = tuple(info)
        busy[name] += selfs[sid] / 1e9
        count[name] += 1
        if trace:
            traces.add(trace)
        if name == "softfloat.run_packed":
            # a backend the auto backend delegated to is the same call
            if names.get(parent) != "softfloat.run_packed":
                lanes, routed_scalar = info
                sf_calls += 1
                sf_lanes += lanes
                if routed_scalar:
                    sf_scalar += lanes
        elif name == "optsim.eval":
            if names.get(parent) != "optsim.eval":
                optsim_lanes += info or 0
        elif name == "staticfp.witness":
            unresolved += info == "unresolved"
        elif name == "engine.run" and info:
            engine_counts.append(info)
        elif name == root:
            root_busy += (t1 - t0) / 1e9
    oracle_evals = count["oracle.operation"]
    metrics = {
        "softfloat.calls": sf_calls,
        "softfloat.lanes": sf_lanes,
        "softfloat.busy_s": busy["softfloat.run_packed"],
        "softfloat.ns_per_lane": (busy["softfloat.run_packed"] * 1e9 / sf_lanes
                                  if sf_lanes else 0.0),
        "softfloat.scalar_lane_share": sf_scalar / sf_lanes if sf_lanes else 0.0,
        "oracle.evals": oracle_evals,
        "oracle.busy_s": busy["oracle.operation"],
        "oracle.us_per_eval": (busy["oracle.operation"] * 1e6 / oracle_evals
                               if oracle_evals else 0.0),
        "oracle.cases_busy_s": busy["oracle.cases"],
        "staticfp.lint.busy_s": busy["staticfp.lint"],
        "staticfp.analyze.busy_s": busy["staticfp.analyze"],
        "staticfp.witness.busy_s": busy["staticfp.witness"],
        "staticfp.witness.unresolved_ratio": (
            unresolved / count["staticfp.witness"]
            if count["staticfp.witness"] else 0.0
        ),
        "optsim.eval.busy_s": busy["optsim.eval"],
        "optsim.eval.lanes": optsim_lanes,
        "telemetry.sessions": count["telemetry.create"],
        "telemetry.absorb_busy_s": busy["telemetry.merge_metric"],
        **{f"engine.{key}": sum(run[index] for run in engine_counts)
           for index, key in enumerate(ENGINE_COUNTS)},
    }
    return {
        "metrics": metrics,
        "engine_runs": count["engine.run"],
        "spans": len(records),
        "root_busy_s": root_busy,
        "trace_ids": sorted(traces),
    }
