"""The differential conformance runner.

For every generated case the runner executes the operation three ways —

1. the softfloat **engine** under a fresh :class:`FPEnv`,
2. the exact-rounding **oracle** (:mod:`repro.oracle.exact`),
3. where the host natively implements the format and the environment
   is the hardware default, **native** floats via numpy —

and demands bit-for-bit value agreement plus exact sticky-flag
agreement between engine and oracle.  Disagreements are shrunk toward
minimal failing bit patterns and recorded as structured
:class:`~repro.oracle.report.Discrepancy` records.

Every environment combination the quiz references is driven: all five
rounding directions crossed with FTZ/DAZ off and on.  Boundary-lattice
cases are checked under *every* combination; random-stream cases cycle
through the matrix round-robin so a budget buys breadth first.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
import zlib
from collections.abc import Sequence

from repro.errors import ReproError
from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
# MODE_ALIASES and FORMATS_BY_NAME are imported here only for
# perfbench/serve.py, which reads them from this module.
from repro.fpenv.rounding import MODE_ALIASES, RoundingMode  # noqa: F401
from repro.oracle.cases import (
    EXHAUSTIVE_WIDTH_LIMIT,
    boundary_operands,
    generate_cases,
)
from repro.oracle.exact import OP_ARITY, OracleConfig, oracle_operation
from repro.oracle.native import (
    native_agrees,
    native_result_bits,
    native_supported,
)
from repro.oracle.report import ConformanceReport, Discrepancy, OpStats
from repro.oracle.shrink import shrink_case
from repro.softfloat.arith import fp_add, fp_div, fp_mul, fp_sub
from repro.softfloat.fma import fp_fma
from repro.softfloat.formats import FORMATS_BY_NAME, FloatFormat  # noqa: F401
from repro.softfloat.sqrt import fp_sqrt
from repro.softfloat.value import SoftFloat
from repro.telemetry import get_telemetry

__all__ = [
    "ENGINE_OPS",
    "OracleMismatch",
    "run_conformance",
    "check_case",
    "op_case_count",
    "eval_offset",
    "plan_op_slices",
    "run_op_slice",
]

ENGINE_OPS = {
    "add": fp_add,
    "sub": fp_sub,
    "mul": fp_mul,
    "div": fp_div,
    "sqrt": fp_sqrt,
    "fma": fp_fma,
}

class OracleMismatch(ReproError):
    """Raised by callers that demand conformance (e.g. the optsim
    cross-validation path) when the engine and oracle disagree."""


def _engine_run(
    op: str,
    fmt: FloatFormat,
    operands: tuple[int, ...],
    mode: RoundingMode,
    ftz: bool,
    daz: bool,
) -> tuple[int, int]:
    """Execute one case on the softfloat engine; returns (bits, flag
    value)."""
    env = FPEnv(rounding=mode, ftz=ftz, daz=daz)
    values = tuple(SoftFloat(fmt, bits) for bits in operands)
    result = ENGINE_OPS[op](*values, env)
    return result.bits, env.flags.value


#: Batch granularity for backend-driven engine evaluation.  Large enough
#: to amortize numpy dispatch, small enough to keep the working set in
#: cache for wide formats.
_ENGINE_CHUNK = 4096


def _batched_engine_results(
    op: str,
    fmt: FloatFormat,
    plan: list[tuple[int, tuple[int, ...], RoundingMode, bool, bool]],
    backend,
) -> list[tuple[int, int]]:
    """Run a slice's evaluation plan through a softfloat backend.

    ``plan`` rows are ``(case_index, operands, mode, ftz, daz)``.
    Evaluations are grouped by environment — one ``run_packed`` call
    handles a whole (mode, FTZ, DAZ) cell at a time — and results come
    back aligned with the plan, as the same ``(bits, flag value)``
    pairs :func:`_engine_run` would have produced.  Cells the backend
    does not support (e.g. binary128 on the integer-lane batch kernels)
    fall back to the scalar engine lane by lane, so the plan always
    completes and the differential verdict never depends on backend
    coverage.
    """
    import numpy as np

    results: list[tuple[int, int] | None] = [None] * len(plan)
    groups: dict[tuple, list[int]] = {}
    for pos, (_, _, mode, ftz, daz) in enumerate(plan):
        groups.setdefault((mode, ftz, daz), []).append(pos)
    for (mode, ftz, daz), positions in groups.items():
        if not backend.supports(op, fmt, mode, ftz, daz):
            for pos in positions:
                operands = plan[pos][1]
                results[pos] = _engine_run(op, fmt, operands, mode, ftz, daz)
            continue
        for start in range(0, len(positions), _ENGINE_CHUNK):
            chunk = positions[start:start + _ENGINE_CHUNK]
            arity = len(plan[chunk[0]][1])
            lanes = [
                np.array([plan[pos][1][slot] for pos in chunk],
                         dtype=np.uint64)
                for slot in range(arity)
            ]
            batch = backend.run_packed(op, fmt, lanes, mode, ftz, daz)
            for pos, pair in zip(chunk, zip(batch.bits.tolist(),
                                            batch.flags.tolist())):
                results[pos] = pair
    return results  # type: ignore[return-value]


def _check_with_engine(
    op: str,
    fmt: FloatFormat,
    operands: tuple[int, ...],
    cfg: OracleConfig,
    engine_bits: int,
    engine_flags: int,
) -> Discrepancy | None:
    """The oracle half of one differential evaluation, for an engine
    result computed one case at a time or in bulk; ``None`` means
    engine == oracle."""
    oracle = oracle_operation(
        op, cfg, *[SoftFloat(fmt, bits) for bits in operands])
    value_ok = engine_bits == oracle.bits
    flags_ok = engine_flags == oracle.flags.value
    if value_ok and flags_ok:
        return None
    kind = ("both" if not value_ok and not flags_ok
            else "value" if not value_ok else "flags")
    return Discrepancy(
        op=op,
        fmt_name=fmt.name,
        operands=operands,
        rounding=cfg.rounding.value,
        ftz=cfg.ftz,
        daz=cfg.daz,
        tininess=cfg.tininess,
        engine_bits=engine_bits,
        oracle_bits=oracle.bits,
        engine_flags=FPFlag(engine_flags),
        oracle_flags=oracle.flags,
        kind=kind,
    )


def check_case(
    op: str,
    fmt: FloatFormat,
    operands: tuple[int, ...],
    mode: RoundingMode,
    *,
    ftz: bool = False,
    daz: bool = False,
    tininess: str = "before",
) -> Discrepancy | None:
    """Run one case differentially; ``None`` means engine == oracle."""
    cfg = OracleConfig(rounding=mode, ftz=ftz, daz=daz, tininess=tininess)
    engine_bits, engine_flags = _engine_run(op, fmt, operands, mode, ftz, daz)
    return _check_with_engine(op, fmt, operands, cfg, engine_bits,
                              engine_flags)


def _shrunk(disc: Discrepancy, fmt: FloatFormat) -> Discrepancy:
    """Attach a minimized witness to a discrepancy."""
    mode = RoundingMode(disc.rounding)
    shrink_evals = get_telemetry().metrics.counter(
        "oracle.shrink_evals_total", op=disc.op
    )

    def fails(operands: tuple[int, ...]) -> bool:
        shrink_evals.inc()
        return check_case(
            disc.op, fmt, operands, mode,
            ftz=disc.ftz, daz=disc.daz, tininess=disc.tininess,
        ) is not None

    minimal = shrink_case(fails, disc.operands, fmt)
    return dataclasses.replace(disc, shrunk_operands=minimal)


def run_conformance(
    fmt: FloatFormat,
    ops: Sequence[str],
    *,
    budget: int = 10000,
    seed: int = 754,
    modes: Sequence[RoundingMode] | None = None,
    env_combos: Sequence[tuple[bool, bool]] = ((False, False), (True, True)),
    tininess: str = "before",
    native: bool = True,
    max_discrepancies: int = 100,
    engine_backend: str = "scalar",
) -> ConformanceReport:
    """Run the full differential sweep and build the report.

    ``budget`` bounds the number of *evaluations* per operation (one
    evaluation = one case under one rounding/FTZ combination).  Boundary
    cases are driven under every combination in the matrix; the random
    stream then cycles combinations round-robin until the budget is
    spent.  Shrinking stops after ``max_discrepancies`` so a broken
    engine still terminates quickly.

    ``engine_backend`` selects how the engine side of every evaluation
    is computed (see :func:`repro.softfloat.get_backend`): ``"scalar"``
    is the historical one-case-at-a-time path; ``"batch"``, ``"native"``
    and ``"auto"`` compute the engine results in vectorized blocks and
    then replay the same per-case differential verdicts.  The verdicts
    are bit-identical across backends — that identity is itself covered
    by the cross-backend differential suite.
    """
    modes = tuple(modes) if modes else tuple(RoundingMode)
    env_combos = tuple(env_combos)
    unknown = sorted(set(ops) - set(ENGINE_OPS))
    if unknown:
        raise ValueError(f"unknown ops {unknown}; choose from"
                         f" {sorted(ENGINE_OPS)}")

    report = ConformanceReport(
        fmt_name=fmt.name,
        seed=seed,
        budget=budget,
        tininess=tininess,
        rounding_modes=tuple(m.value for m in modes),
        env_combos=env_combos,
    )
    matrix = tuple(itertools.product(modes, env_combos))

    telemetry = get_telemetry()
    run_span = telemetry.tracer.span(
        "oracle.run", format=fmt.name, budget=budget, seed=seed,
        ops=",".join(ops),
    )
    with run_span:
        for op in ops:
            _run_op(report, telemetry, op, fmt, budget, seed, matrix, tininess,
                    native, max_discrepancies, engine_backend)
    return report


def _run_op(
    report: ConformanceReport,
    telemetry,
    op: str,
    fmt: FloatFormat,
    budget: int,
    seed: int,
    matrix: tuple,
    tininess: str,
    native: bool,
    max_discrepancies: int,
    engine_backend: str = "scalar",
) -> None:
    """Drive one operation's differential loop (one ``oracle.op`` span).

    When telemetry is enabled every evaluation is individually timed
    into a latency histogram; disabled, the only cost over the original
    loop is two clock reads per *operation* (for the JSON report's
    wall-time/evals-per-sec fields).
    """
    with telemetry.tracer.span("oracle.op", op=op, format=fmt.name) as span:
        op_started = time.perf_counter()
        stats = OpStats(op=op)
        report.op_stats[op] = stats
        _drive_op_cases(
            op, fmt, budget, seed, matrix, tininess, native,
            stats=stats, sink=report.discrepancies,
            sink_cap=max_discrepancies,
            engine_backend=engine_backend,
        )
        stats.wall_seconds = time.perf_counter() - op_started
        span.set("evals", stats.evals)
        span.set("discrepancies", stats.discrepancies)
        if telemetry.enabled:
            telemetry.metrics.gauge("oracle.evals_per_sec", op=op).set(
                stats.evals_per_sec
            )


def _full_matrix_cases(
    fmt: FloatFormat, arity: int, budget: int, matrix_len: int
) -> int:
    """How many leading cases are driven under *every* matrix combo.

    Boundary cases (and exhaustive tiny formats) get the full matrix;
    this is the budget split the serial loop has always used, factored
    out so shard planning computes the identical number.
    """
    full_matrix_cases = max(1, budget // (4 * matrix_len))
    if fmt.width <= EXHAUSTIVE_WIDTH_LIMIT:
        space = (1 << fmt.width) ** arity
        if space * matrix_len <= budget:
            full_matrix_cases = space
    else:
        n_corners = len(boundary_operands(fmt))
        full_matrix_cases = min(full_matrix_cases, n_corners ** min(arity, 2))
    return full_matrix_cases


def _generated_case_count(fmt: FloatFormat, arity: int, budget: int) -> int:
    """How many cases :func:`generate_cases` yields for these params."""
    if fmt.width <= EXHAUSTIVE_WIDTH_LIMIT:
        space = (1 << fmt.width) ** arity
        if space <= budget:
            return space
    return budget


def eval_offset(
    case_index: int, full_matrix_cases: int, matrix_len: int, budget: int
) -> int:
    """Evaluations the serial loop has spent before ``case_index``.

    Closed-form: the first ``full_matrix_cases`` cases cost
    ``matrix_len`` evaluations each, every later case costs one, and
    the loop never exceeds ``budget``.  This is what lets a shard know
    its position in the op's global budget without replaying the
    prefix.
    """
    ideal = (matrix_len * min(case_index, full_matrix_cases)
             + max(0, case_index - full_matrix_cases))
    return min(ideal, budget)


def op_case_count(
    fmt: FloatFormat, op: str, budget: int, matrix_len: int
) -> int:
    """The number of cases the serial loop processes for one op."""
    arity = OP_ARITY[op]
    fmc = _full_matrix_cases(fmt, arity, budget, matrix_len)
    generated = _generated_case_count(fmt, arity, budget)
    if budget <= fmc * matrix_len:
        exhausted_at = -(-budget // matrix_len)  # ceil division
    else:
        exhausted_at = fmc + (budget - fmc * matrix_len)
    return min(generated, exhausted_at)


def plan_op_slices(
    fmt: FloatFormat, op: str, budget: int, matrix_len: int, n_slices: int
) -> list[tuple[int, int]]:
    """Split one op's case stream into up to ``n_slices`` contiguous
    ``(case_lo, case_hi)`` ranges, balanced by *evaluation* count (the
    leading full-matrix cases are ``matrix_len`` times heavier than the
    round-robin tail).  Concatenating the slices reproduces the serial
    sweep exactly; the split only chooses where the seams fall.
    """
    n_cases = op_case_count(fmt, op, budget, matrix_len)
    if n_cases == 0:
        return []
    arity = OP_ARITY[op]
    fmc = _full_matrix_cases(fmt, arity, budget, matrix_len)
    total_evals = eval_offset(n_cases, fmc, matrix_len, budget)
    boundaries = [0]
    for j in range(1, n_slices):
        target = j * total_evals // n_slices
        if target <= fmc * matrix_len:
            case = target // matrix_len
        else:
            case = fmc + (target - fmc * matrix_len)
        boundaries.append(min(max(case, boundaries[-1]), n_cases))
    boundaries.append(n_cases)
    return [
        (lo, hi)
        for lo, hi in zip(boundaries, boundaries[1:])
        if hi > lo
    ]


def run_op_slice(
    fmt: FloatFormat,
    op: str,
    budget: int,
    seed: int,
    matrix: tuple,
    tininess: str,
    native: bool,
    max_discrepancies: int,
    case_lo: int,
    case_hi: int,
    engine_backend: str = "scalar",
) -> tuple[OpStats, list[Discrepancy]]:
    """Run cases ``[case_lo, case_hi)`` of one op's differential sweep.

    A pure function of its arguments: the case stream is regenerated
    from the seed and fast-forwarded, and the shard's position in the
    op's evaluation budget is computed in closed form — so the union
    of disjoint slices is bit-identical to the serial sweep.  Because
    ``engine_backend`` never changes *which* evaluations a slice
    performs (only how the engine side is computed), batched shards
    compose with the worker pool exactly as scalar ones do.
    """
    stats = OpStats(op=op)
    sink: list[Discrepancy] = []
    started = time.perf_counter()
    _drive_op_cases(
        op, fmt, budget, seed, matrix, tininess, native,
        stats=stats, sink=sink, sink_cap=max_discrepancies,
        case_lo=case_lo, case_hi=case_hi,
        engine_backend=engine_backend,
    )
    stats.wall_seconds = time.perf_counter() - started
    return stats, sink


def _iter_evals(
    op: str,
    fmt: FloatFormat,
    budget: int,
    seed: int,
    matrix: tuple,
    case_lo: int,
    case_hi: int | None,
):
    """Yield one op's evaluation stream (or a slice of it).

    Each item is ``(index, first_of_case, operands, mode, ftz, daz)``
    where ``first_of_case`` marks the first evaluation of a new case
    (the per-case statistics hook).  This generator is the single
    source of truth for combo selection and budget cutoff — the scalar
    loop and the batched plan both consume it, which is what makes
    their evaluation streams identical by construction.
    """
    arity = OP_ARITY[op]
    matrix_len = len(matrix)
    fmc = _full_matrix_cases(fmt, arity, budget, matrix_len)
    case_seed = seed ^ (zlib.crc32(op.encode()) & 0xFFFF)
    evals_spent = eval_offset(case_lo, fmc, matrix_len, budget)

    cases = generate_cases(fmt, arity, budget, case_seed)
    if case_lo:
        cases = itertools.islice(cases, case_lo, None)
    for index, operands in enumerate(cases, start=case_lo):
        if case_hi is not None and index >= case_hi:
            return
        if evals_spent >= budget:
            return
        if index < fmc:
            combos = matrix
        else:
            combos = (matrix[(index - fmc) % matrix_len],)
        first = True
        for mode, (ftz, daz) in combos:
            if evals_spent >= budget:
                break
            evals_spent += 1
            yield index, first, operands, mode, ftz, daz
            first = False


def _drive_op_cases(
    op: str,
    fmt: FloatFormat,
    budget: int,
    seed: int,
    matrix: tuple,
    tininess: str,
    native: bool,
    *,
    stats: OpStats,
    sink: list[Discrepancy],
    sink_cap: int,
    case_lo: int = 0,
    case_hi: int | None = None,
    engine_backend: str = "scalar",
) -> None:
    """The differential loop over one op's case stream (or a slice).

    Serial runs drive ``[0, None)`` with the report's shared
    discrepancy list as ``sink``; engine shards drive ``[lo, hi)``
    with a private sink.  Either way the per-case behavior — combo
    selection, budget cutoff, shrinking — depends only on the case
    index, never on which process is executing.

    With a non-scalar ``engine_backend`` the engine side of every
    evaluation is computed up front in vectorized blocks (grouped by
    rounding/FTZ/DAZ cell), and the oracle comparison replays over the
    precomputed results in stream order; the per-evaluation latency
    histogram then times the oracle half only.
    """
    telemetry = get_telemetry()
    instrumented = telemetry.enabled
    metrics = telemetry.metrics
    evals_total = metrics.counter("oracle.evals_total", op=op)
    discrepancies_total = metrics.counter("oracle.discrepancies_total", op=op)
    # mergeable: per-shard deltas from engine workers must fold into
    # the parent's distribution with order-independent quantiles
    latency = metrics.log_histogram("oracle.eval_seconds", op=op)

    stream = _iter_evals(op, fmt, budget, seed, matrix, case_lo, case_hi)
    engine_results = None
    if engine_backend != "scalar":
        from repro.softfloat.backend import get_backend

        backend = get_backend(engine_backend)
        plan = [
            (index, operands, mode, ftz, daz)
            for index, _, operands, mode, ftz, daz in stream
        ]
        engine_results = _batched_engine_results(op, fmt, plan, backend)
        stream = _iter_evals(op, fmt, budget, seed, matrix, case_lo, case_hi)

    # Hot-loop bindings: the per-eval instrumented cost is two clock
    # reads and one histogram observation; the eval counter is a local
    # integer flushed once after the loop (the registry value is only
    # read at snapshot/capture time, so batching is invisible).
    clock = time.perf_counter
    observe_latency = latency.observe
    evals_done = 0
    configs = {
        (mode, ftz, daz): OracleConfig(rounding=mode, ftz=ftz, daz=daz,
                                       tininess=tininess)
        for mode, (ftz, daz) in matrix
    }
    native = native and native_supported(op, fmt)
    for pos, (index, first, operands, mode, ftz, daz) in enumerate(stream):
        if first:
            stats.cases += 1
        stats.evals += 1
        if instrumented:
            check_started = clock()
        if engine_results is None:
            engine_bits, engine_flags = _engine_run(
                op, fmt, operands, mode, ftz, daz)
        else:
            engine_bits, engine_flags = engine_results[pos]
        disc = _check_with_engine(op, fmt, operands, configs[mode, ftz, daz],
                                  engine_bits, engine_flags)
        if instrumented:
            observe_latency(clock() - check_started)
            evals_done += 1
        if disc is None:
            stats.value_agree += 1
            stats.flag_agree += 1
        else:
            stats.discrepancies += 1
            discrepancies_total.inc()
            if disc.kind == "flags":
                stats.value_agree += 1
            elif disc.kind == "value":
                stats.flag_agree += 1
            if len(sink) < sink_cap:
                sink.append(_shrunk(disc, fmt))
        # Native third opinion under the hardware-default env.
        if (native and not ftz and not daz
                and mode is RoundingMode.NEAREST_EVEN):
            native_bits = native_result_bits(op, fmt, operands)
            if native_bits is not None:
                stats.native_evals += 1
                if native_agrees(fmt, native_bits, engine_bits):
                    stats.native_agree += 1
    if evals_done:
        evals_total.inc(evals_done)
