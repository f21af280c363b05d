"""Sharded re-expressions of the repo's heavyweight computations.

Each adapter is two halves:

- a registered **task** — a pure, JSON-in/JSON-out function executed
  in worker processes;
- a parent-side ``run_*_sharded`` entry point that plans shards,
  submits the job to an :class:`~repro.engine.engine.Engine`, and
  merges shard results into *exactly* the object the serial code path
  produces.

The merge step is where the bit-identity contract lives, and each
adapter discharges it differently:

- **oracle** — shard boundaries come from
  :func:`~repro.oracle.runner.plan_op_slices` (closed-form budget
  accounting), and :meth:`~repro.oracle.report.OpStats.absorb` plus
  in-order discrepancy concatenation reconstruct the serial report;
- **study** — respondents are pure functions of their cohort position
  (:func:`~repro.population.response_model.respondent_rng`), so
  cohort ranges concatenate into the serial response list and the
  figures are recomputed in the parent from identical records;
- **optsim** — every shard regenerates the same deterministic
  candidate list and walks a disjoint slice; the merged verdict is
  the *minimum* diverging index, the same "first hit wins" the serial
  walk implements;
- **staticfp** — corpus entries are independent; outcomes are merged
  by key.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import Any

from repro.engine.tasks import Job, TaskSpec, Shard, derive_seed, task
from repro.fpenv.rounding import RoundingMode

__all__ = [
    "run_conformance_sharded",
    "run_study_sharded",
    "find_divergence_sharded",
    "witness_sweep_sharded",
    "run_corpus_sharded",
]


# ----------------------------------------------------------------------
# oracle: differential conformance sweep
# ----------------------------------------------------------------------

@task("oracle.op_slice")
def _oracle_op_slice(params: dict, ctx) -> dict:
    """Cases ``[case_lo, case_hi)`` of one op's differential sweep."""
    from repro.oracle.runner import run_op_slice
    from repro.softfloat.formats import FORMATS_BY_NAME

    fmt = FORMATS_BY_NAME[params["format"]]
    modes = tuple(RoundingMode(v) for v in params["modes"])
    env_combos = tuple((ftz, daz) for ftz, daz in params["env_combos"])
    matrix = tuple(itertools.product(modes, env_combos))
    stats, discrepancies = run_op_slice(
        fmt,
        params["op"],
        params["budget"],
        params["seed"],
        matrix,
        params["tininess"],
        params["native"],
        params["max_discrepancies"],
        params["case_lo"],
        params["case_hi"],
        engine_backend=params.get("engine_backend", "scalar"),
    )
    return {
        "stats": stats.to_dict(),
        "discrepancies": [d.to_dict() for d in discrepancies],
    }


def run_conformance_sharded(
    fmt,
    ops: Sequence[str],
    engine,
    *,
    budget: int = 10000,
    seed: int = 754,
    modes=None,
    env_combos: Sequence[tuple[bool, bool]] = ((False, False), (True, True)),
    tininess: str = "before",
    native: bool = True,
    max_discrepancies: int = 100,
    slices_per_op: int | None = None,
    engine_backend: str = "scalar",
):
    """The sharded twin of :func:`repro.oracle.runner.run_conformance`.

    Returns a :class:`~repro.oracle.report.ConformanceReport` whose
    :meth:`~repro.oracle.report.ConformanceReport.canonical_json` is
    byte-identical to the serial runner's — per-op stats are absorbed
    slice by slice and discrepancies concatenated in (op, slice) order
    then truncated to the serial sweep's global cap.  Only the
    wall-clock fields differ (they sum worker seconds).
    """
    from repro.oracle.report import ConformanceReport, Discrepancy, OpStats
    from repro.oracle.runner import ENGINE_OPS, plan_op_slices

    modes = tuple(modes) if modes else tuple(RoundingMode)
    env_combos = tuple(tuple(combo) for combo in env_combos)
    unknown = sorted(set(ops) - set(ENGINE_OPS))
    if unknown:
        raise ValueError(f"unknown ops {unknown}; choose from"
                         f" {sorted(ENGINE_OPS)}")
    if slices_per_op is None:
        slices_per_op = max(1, engine.config.workers) * 2

    matrix_len = len(modes) * len(env_combos)
    base_params = {
        "format": fmt.name,
        "budget": budget,
        "seed": seed,
        "modes": [m.value for m in modes],
        "env_combos": [list(combo) for combo in env_combos],
        "tininess": tininess,
        "native": native,
        "max_discrepancies": max_discrepancies,
        "engine_backend": engine_backend,
    }
    param_list = []
    op_slice_counts = []
    for op in ops:
        slices = plan_op_slices(fmt, op, budget, matrix_len, slices_per_op)
        op_slice_counts.append((op, len(slices)))
        for lo, hi in slices:
            param_list.append(
                {**base_params, "op": op, "case_lo": lo, "case_hi": hi}
            )

    def merge(results: list[dict]) -> ConformanceReport:
        report = ConformanceReport(
            fmt_name=fmt.name,
            seed=seed,
            budget=budget,
            tininess=tininess,
            rounding_modes=tuple(m.value for m in modes),
            env_combos=env_combos,
        )
        cursor = 0
        for op, n_slices in op_slice_counts:
            stats = OpStats(op=op)
            for result in results[cursor:cursor + n_slices]:
                stats.absorb(OpStats.from_dict(result["stats"]))
                for payload in result["discrepancies"]:
                    if len(report.discrepancies) < max_discrepancies:
                        report.discrepancies.append(
                            Discrepancy.from_dict(payload)
                        )
            cursor += n_slices
            report.op_stats[op] = stats
        return report

    job = _spec_seeded_job(
        f"oracle.{fmt.name}", "oracle.op_slice", param_list,
        seed=seed, merge=merge,
    )
    return engine.run(job)


# ----------------------------------------------------------------------
# study: cohort simulation + figure regeneration
# ----------------------------------------------------------------------

@task("study.simulate_slice")
def _study_simulate_slice(params: dict, ctx) -> list[dict]:
    """Respondents ``[start, stop)`` of one cohort, as records."""
    from repro.population.response_model import (
        simulate_developers,
        simulate_students,
    )

    simulate = {
        "developer": simulate_developers,
        "student": simulate_students,
    }[params["cohort"]]
    responses = simulate(
        params["n"], params["seed"],
        start=params["start"], stop=params["stop"],
    )
    return [r.to_dict() for r in responses]


def run_study_sharded(
    engine,
    *,
    seed: int = 754,
    n_developers: int = 199,
    n_students: int = 52,
    shard_size: int = 25,
):
    """The sharded twin of :func:`repro.analysis.study.run_study`.

    Simulation (the expensive phase) is sharded into cohort ranges;
    the figures are regenerated in the parent from the merged records.
    Because respondents are pure functions of their cohort position,
    the merged :class:`~repro.analysis.study.StudyResults` renders and
    serializes byte-identically to the serial run at any worker count.
    """
    from repro.analysis.study import analyze
    from repro.survey.records import SurveyResponse
    from repro.telemetry import get_telemetry

    param_list = []
    for cohort, n in (("developer", n_developers), ("student", n_students)):
        for start in range(0, n, shard_size):
            param_list.append({
                "cohort": cohort,
                "n": n,
                "seed": seed,
                "start": start,
                "stop": min(start + shard_size, n),
            })

    def merge(results: list[list[dict]]):
        responses = [
            SurveyResponse.from_dict(record)
            for slice_records in results
            for record in slice_records
        ]
        return analyze(responses)

    with get_telemetry().tracer.span(
        "study.run", seed=seed, developers=n_developers, students=n_students
    ):
        job = _spec_seeded_job(
            "study", "study.simulate_slice", param_list,
            seed=seed, merge=merge,
        )
        return engine.run(job)


# ----------------------------------------------------------------------
# optsim: divergence search
# ----------------------------------------------------------------------

@task("optsim.divergence_slice")
def _optsim_divergence_slice(params: dict, ctx) -> dict:
    """Walk candidates ``[lo, hi)`` of a divergence search.

    An optional ``backend`` param evaluates the whole slice in
    vectorized softfloat-backend lanes (both the strict and the
    optimized side) instead of candidate by candidate; the verdict —
    the first diverging index — is unchanged, and the parent re-checks
    that single binding scalar when it builds the report.
    """
    from repro.optsim import optimize, parse_expr
    from repro.optsim.compliance import check_binding, divergence_candidates

    config = _resolve_level(params["level"])
    expr = parse_expr(params["expr"])
    optimized = optimize(expr, config)
    candidates = divergence_candidates(
        expr, config, seed=params["seed"], trials=params["trials"],
    )
    lo, hi = params["lo"], params["hi"]
    hi = min(hi, len(candidates))
    backend = params.get("backend")
    if backend is not None and hi > lo:
        from repro.optsim.batch_eval import evaluate_many
        from repro.optsim.compliance import _same_value
        from repro.optsim.machine import STRICT

        chunk = candidates[lo:hi]
        strict_config = STRICT.replace(fmt=config.fmt)
        strict_results = evaluate_many(expr, chunk, strict_config, backend)
        optimized_results = evaluate_many(optimized, chunk, config, backend)
        for offset, (s, o) in enumerate(zip(strict_results,
                                            optimized_results)):
            value_diverged = not _same_value(s.value, o.value)
            flags_diverged = s.flags != o.flags
            if value_diverged or (params["check_flags"] and flags_diverged):
                return {"index": lo + offset, "checked": offset + 1}
        return {"index": None, "checked": hi - lo}
    for index in range(lo, hi):
        _, _, value_diverged, flags_diverged = check_binding(
            expr, optimized, candidates[index], config
        )
        if value_diverged or (params["check_flags"] and flags_diverged):
            return {"index": index, "checked": index - lo + 1}
    return {"index": None, "checked": max(0, hi - lo)}


def _resolve_level(level: str):
    from repro.optsim import config_from_flags, optimization_level

    try:
        return optimization_level(level)
    except ValueError:
        return config_from_flags(level)


def find_divergence_sharded(
    expr_text: str,
    level: str,
    engine,
    *,
    seed: int = 754,
    trials: int = 400,
    check_flags: bool = True,
    n_slices: int | None = None,
    backend: str | None = None,
):
    """The sharded twin of :func:`repro.optsim.find_divergence`.

    Shards walk disjoint slices of the same deterministic candidate
    list; the merged verdict takes the minimum diverging index, and
    the parent re-evaluates that one binding to build the identical
    :class:`~repro.optsim.compliance.DivergenceReport` (``trials`` is
    the serial walk's stop count, index + 1).  Accepts the expression
    and optimization level as strings because that is what crosses the
    process boundary.
    """
    import dataclasses as _dataclasses

    from repro.optsim import optimize, parse_expr
    from repro.optsim.compliance import (
        DivergenceReport,
        check_binding,
        divergence_candidates,
    )
    from repro.telemetry import get_telemetry

    config = _resolve_level(level)
    expr = parse_expr(expr_text)
    candidates = divergence_candidates(
        expr, config, seed=seed, trials=trials
    )
    total = len(candidates)
    if n_slices is None:
        n_slices = max(1, engine.config.workers) * 2
    n_slices = max(1, min(n_slices, total)) if total else 1
    boundaries = [total * j // n_slices for j in range(n_slices + 1)]
    param_list = [
        {
            "expr": expr_text,
            "level": level,
            "seed": seed,
            "trials": trials,
            "check_flags": check_flags,
            "lo": lo,
            "hi": hi,
            "backend": backend,
        }
        for lo, hi in zip(boundaries, boundaries[1:])
        if hi > lo
    ]

    def merge(results: list[dict]) -> DivergenceReport:
        hits = [r["index"] for r in results if r["index"] is not None]
        optimized = optimize(expr, config)
        if not hits:
            return DivergenceReport(
                expr=expr, optimized_expr=optimized, config=config,
                diverged=False, value_diverged=False, flags_diverged=False,
                witness=None, strict_result=None, optimized_result=None,
                trials=total,
            )
        index = min(hits)
        binding = candidates[index]
        strict_result, optimized_result, value_diverged, flags_diverged = \
            check_binding(expr, optimized, binding, config)
        return DivergenceReport(
            expr=expr, optimized_expr=optimized, config=config,
            diverged=True, value_diverged=value_diverged,
            flags_diverged=flags_diverged, witness=binding,
            strict_result=strict_result, optimized_result=optimized_result,
            trials=index + 1,
        )

    telemetry = get_telemetry()
    with telemetry.tracer.span(
        "optsim.find_divergence", config=config.name, expr=str(expr)
    ) as span:
        job = _spec_seeded_job(
            f"optsim.{config.name}", "optsim.divergence_slice", param_list,
            seed=seed, merge=merge,
        )
        report = engine.run(job)
        span.set("diverged", report.diverged)
        span.set("trials", report.trials)
        return report


# ----------------------------------------------------------------------
# optsim: exhaustive witness sweep
# ----------------------------------------------------------------------

@task("optsim.witness_slice")
def _optsim_witness_slice(params: dict, ctx) -> dict:
    """Sweep index slice ``[start, stop)`` of an exhaustive witness
    search over serialized bit regions."""
    from repro.optsim.guided import sweep_slice

    return sweep_slice(
        params["expr"],
        params["level"],
        params["regions"],
        params["start"],
        params["stop"],
        check_flags=params["check_flags"],
        backend=params.get("backend", "auto"),
        fmt=params.get("fmt"),
    )


def witness_sweep_sharded(
    expr_text: str,
    level: str,
    engine,
    *,
    bindings=None,
    check_flags: bool = True,
    n_slices: int | None = None,
    backend: str = "auto",
    fmt: str | None = None,
):
    """The sharded twin of :func:`repro.optsim.guided.exhaustive_sweep`.

    The parent plans the per-variable bit regions once, serializes
    them into every shard, and splits the mixed-radix index space into
    contiguous slices; the merged verdict is the minimum diverging
    index (first-hit-wins, like the serial sweep), re-checked scalar
    in the parent to build the identical
    :class:`~repro.optsim.guided.SweepResult`.  ``fmt`` optionally
    overrides the level's format by name (TINY8 proof sweeps of
    wide-format levels).
    """
    from repro.optsim import optimize, parse_expr
    from repro.optsim.guided import SweepResult, sweep_regions
    from repro.telemetry import get_telemetry

    config = _resolve_level(level)
    if fmt is not None:
        from repro.softfloat.formats import FORMATS_BY_NAME

        config = config.replace(fmt=FORMATS_BY_NAME[fmt])
    expr = parse_expr(expr_text)
    optimized = optimize(expr, config)
    regions = sweep_regions(expr, optimized, config, bindings)
    region_dicts = {name: r.to_dict() for name, r in regions.items()}
    total = 1
    for region in regions.values():
        total *= region.size
    if n_slices is None:
        n_slices = max(1, engine.config.workers) * 2
    n_slices = max(1, min(n_slices, total)) if total else 1
    boundaries = [total * j // n_slices for j in range(n_slices + 1)]
    param_list = [
        {
            "expr": expr_text,
            "level": level,
            "regions": region_dicts,
            "start": lo,
            "stop": hi,
            "check_flags": check_flags,
            "backend": backend,
            "fmt": fmt,
        }
        for lo, hi in zip(boundaries, boundaries[1:])
        if hi > lo
    ]

    def merge(results: list[dict]) -> SweepResult:
        from repro.optsim.compliance import check_binding
        from repro.optsim.guided import exhaustive_sweep

        checked = sum(r["checked"] for r in results)
        hits = [r["index"] for r in results if r["index"] is not None]
        if not hits:
            return SweepResult(
                found_index=None, witness=None, value_diverged=False,
                flags_diverged=False, states=total, checked=checked,
            )
        index = min(hits)
        # Re-materialize the diverging binding by sweeping the
        # single-state slice [index, index + 1) in the parent.
        single = exhaustive_sweep(
            expr, optimized, config, regions=regions,
            check_flags=check_flags, backend=backend,
            start=index, stop=index + 1, max_states=1 << 62,
        )
        binding = single.witness
        assert binding is not None
        _, _, vdiv, fdiv = check_binding(expr, optimized, binding, config)
        return SweepResult(
            found_index=index, witness=binding, value_diverged=vdiv,
            flags_diverged=fdiv, states=total, checked=checked,
        )

    telemetry = get_telemetry()
    with telemetry.tracer.span(
        "optsim.witness_sweep", config=config.name, expr=str(expr),
        states=total,
    ) as span:
        job = _spec_seeded_job(
            f"witness.{config.name}", "optsim.witness_slice", param_list,
            seed=0, merge=merge,
        )
        result = engine.run(job)
        span.set("found", result.found_index is not None)
        span.set("checked", result.checked)
        return result


# ----------------------------------------------------------------------
# staticfp: lint-corpus sweep
# ----------------------------------------------------------------------

@task("staticfp.lint_entries")
def _staticfp_lint_entries(params: dict, ctx) -> dict:
    """Lint a batch of corpus entries down to JSON-able outcomes."""
    from repro.staticfp.corpus import entry_by_key, entry_outcome

    return {
        key: entry_outcome(entry_by_key(key)) for key in params["keys"]
    }


def run_corpus_sharded(engine, *, shard_size: int = 4) -> dict[str, dict]:
    """The sharded twin of :func:`repro.staticfp.corpus.corpus_outcomes`.

    Feed the merged outcomes to ``precision_summary``/``check_golden``
    — entries are independent, so the merge is a keyed union.
    """
    from repro.staticfp.corpus import CLEAN_CORPUS, GOTCHA_CORPUS

    keys = [e.key for e in GOTCHA_CORPUS + CLEAN_CORPUS]
    param_list = [
        {"keys": keys[start:start + shard_size]}
        for start in range(0, len(keys), shard_size)
    ]

    def merge(results: list[dict]) -> dict[str, dict]:
        outcomes: dict[str, dict] = {}
        for batch in results:
            outcomes.update(batch)
        return outcomes

    job = _spec_seeded_job(
        "staticfp.corpus", "staticfp.lint_entries", param_list,
        seed=0, merge=merge,
    )
    return engine.run(job)


# ----------------------------------------------------------------------
# shared
# ----------------------------------------------------------------------

def _spec_seeded_job(name, task_name, param_list, *, seed, merge) -> Job:
    """A job whose shard seeds depend on the *spec*, not the position.

    :func:`~repro.engine.tasks.make_job` seeds by shard index, which is
    right for tasks that draw on ``ctx.seed``.  Adapter tasks carry
    their own seeds in their params (the serial code path's seeds), so
    the shard seed only feeds the cache key — deriving it from the
    canonical spec means re-slicing a sweep leaves unchanged shards'
    cache entries valid.
    """
    shards = tuple(
        Shard(
            index=index,
            spec=TaskSpec(task=task_name, params=dict(params)),
            seed=derive_seed(
                seed, TaskSpec(task=task_name, params=dict(params)).canonical()
            ),
        )
        for index, params in enumerate(param_list)
    )
    return Job(name=name, shards=shards, merge=merge)
