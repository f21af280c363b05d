"""Feasible divergence regions: abstract facts turned into bit spaces.

This is the bridge from PR 3's abstract interpretation to witness
search.  A :class:`BitRegion` is a set of packed encodings of one
format, stored as intervals in *ordered-key* space — a bijection from
the non-NaN encodings onto ``0..total_keys-1`` that sorts by numeric
value (``-inf`` first, ``-0`` then ``+0`` in the middle, ``+inf``
last).  In that space an :class:`~repro.staticfp.domain.AbstractValue`
hull is a contiguous span, region intersection is interval clipping,
uniform sampling is one ``randrange``, and exhaustive enumeration is a
counter — which is exactly what the guided and exhaustive strategies
of :func:`repro.optsim.find_divergence` need.

:func:`refine_toward` runs the interval domain *backward*: given a
desired result set at one node (say "the subtraction lands in the
subnormal band", the precondition for an FTZ flush), it inverts the
arithmetic interval-wise — probing real softfloat operations under
directed rounding, the same discipline the forward transfer functions
use — to compute per-variable sets that can reach it.  Inversion is
steering, not proof: where an inverse is ill-defined (divisor spanning
zero, ``min``/``rem``) the operand keeps its forward value, and every
computed bound is widened outward, so a region never *excludes* a real
witness reachable through the refined path.

:func:`divergence_goals` packages the refinements per hazard: one
:class:`SearchGoal` per candidate pass or exception flow (cancellation
sites for reassociation, subnormal bands for FTZ/DAZ, overflow/
invalid/divide-by-zero preconditions per node), each carrying the
per-variable bit regions a guided search should sample from.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Mapping

from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.optsim.ast import Binary, BinOp, Const, Expr, Var, expr_variables
from repro.optsim.machine import MachineConfig
from repro.softfloat import SoftFloat, next_down, next_up, special_values
from repro.softfloat.directed import probe_op
from repro.softfloat.formats import FORMATS_BY_NAME, FloatFormat
from repro.staticfp.analyze import Analysis, analyze, as_abstract
from repro.staticfp.domain import (
    AbstractValue,
    _le,
    _lt,
    _materialize_zeros,
    _max_sf,
    _min_sf,
    _transfer_neg,
)

__all__ = [
    "BitRegion",
    "SearchGoal",
    "bits_of_key",
    "divergence_goals",
    "key_of_bits",
    "refine_toward",
    "total_keys",
    "variable_regions",
]


# ----------------------------------------------------------------------
# Ordered keys: a value-sorted bijection over the non-NaN encodings
# ----------------------------------------------------------------------
def _inf_magnitude(fmt: FloatFormat) -> int:
    """The magnitude field of an infinity (largest non-NaN magnitude)."""
    return fmt.max_biased_exp << fmt.frac_bits


def total_keys(fmt: FloatFormat) -> int:
    """Number of non-NaN encodings of ``fmt``."""
    return 2 * _inf_magnitude(fmt) + 2


def key_of_bits(fmt: FloatFormat, bits: int) -> int:
    """Map a non-NaN encoding to its ordered key.

    Keys ascend in numeric value: ``-inf`` is 0, ``-0`` is
    ``total/2 - 1``, ``+0`` is ``total/2``, ``+inf`` is ``total - 1``.
    """
    inf_m = _inf_magnitude(fmt)
    sign = bits >> (fmt.width - 1)
    magnitude = bits & (inf_m | fmt.sig_mask)
    if magnitude > inf_m:
        raise ValueError(f"NaN encoding {bits:#x} has no ordered key")
    return inf_m - magnitude if sign else inf_m + 1 + magnitude


def bits_of_key(fmt: FloatFormat, key: int) -> int:
    """Inverse of :func:`key_of_bits`."""
    inf_m = _inf_magnitude(fmt)
    if not 0 <= key <= 2 * inf_m + 1:
        raise ValueError(f"key {key} out of range for {fmt.name}")
    if key <= inf_m:
        return (1 << (fmt.width - 1)) | (inf_m - key)
    return key - inf_m - 1


def _key_of_value(x: SoftFloat) -> int:
    return key_of_bits(x.fmt, x.bits)


def _all_nan_bits(fmt: FloatFormat) -> tuple[int, ...]:
    """Every NaN encoding (small formats only — exhaustive sweeps)."""
    if fmt.frac_bits > 12:
        raise ValueError(
            f"{fmt.name}: refusing to enumerate 2^{fmt.frac_bits + 1} NaNs"
        )
    out = []
    for sign in (0, 1):
        for frac in range(1, fmt.sig_mask + 1):
            out.append(fmt.pack(sign, fmt.max_biased_exp, frac))
    return tuple(sorted(out))


def _canonical_nan_bits(fmt: FloatFormat, *, snan: bool) -> tuple[int, ...]:
    bits = [SoftFloat.nan(fmt).bits, fmt.quiet_nan_bits(1, 0)]
    if snan:
        bits.append(SoftFloat.signaling_nan(fmt).bits)
    return tuple(sorted(set(bits)))


@dataclasses.dataclass(frozen=True)
class BitRegion:
    """A set of packed encodings: value-ordered key spans plus an
    explicit (small) list of NaN encodings.

    Spans are inclusive ``(lo_key, hi_key)`` pairs, normalized to be
    sorted, disjoint, and non-adjacent; all set operations and the
    index-addressable :meth:`select` run directly on them.
    """

    fmt: FloatFormat
    spans: tuple[tuple[int, int], ...]
    nan_bits: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def from_spans(
        cls,
        fmt: FloatFormat,
        spans: list[tuple[int, int]] | tuple[tuple[int, int], ...],
        nan_bits: tuple[int, ...] | list[int] = (),
    ) -> "BitRegion":
        limit = total_keys(fmt) - 1
        clipped = sorted(
            (max(0, lo), min(hi, limit)) for lo, hi in spans if lo <= hi
        )
        merged: list[tuple[int, int]] = []
        for lo, hi in clipped:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return cls(fmt, tuple(merged), tuple(sorted(set(nan_bits))))

    @classmethod
    def empty(cls, fmt: FloatFormat) -> "BitRegion":
        return cls(fmt, ())

    @classmethod
    def full(
        cls, fmt: FloatFormat, *, nan: str | bool = False
    ) -> "BitRegion":
        """All non-NaN encodings; ``nan="canonical"`` adds the canonical
        quiet/signaling NaNs, ``nan="all"`` every NaN encoding (small
        formats only — the exhaustive-proof domain)."""
        if nan == "all":
            nans: tuple[int, ...] = _all_nan_bits(fmt)
        elif nan == "canonical" or nan is True:
            nans = _canonical_nan_bits(fmt, snan=True)
        else:
            nans = ()
        return cls(fmt, ((0, total_keys(fmt) - 1),), nans)

    @classmethod
    def from_abstract(
        cls, value: AbstractValue, *, nan: bool = True
    ) -> "BitRegion":
        """The encodings an abstract value admits (its hull, attainable
        signed zeros, and — when ``nan`` — canonical NaNs)."""
        value = _materialize_zeros(value)
        fmt = value.fmt
        spans: list[tuple[int, int]] = []
        if value.lo is not None:
            spans.append((_key_of_value(value.lo), _key_of_value(value.hi)))
        if value.pos_zero:
            k = _key_of_value(SoftFloat.zero(fmt, 0))
            spans.append((k, k))
        if value.neg_zero:
            k = _key_of_value(SoftFloat.zero(fmt, 1))
            spans.append((k, k))
        nans: tuple[int, ...] = ()
        if nan and value.maybe_nan:
            nans = _canonical_nan_bits(fmt, snan=value.maybe_snan)
        return cls.from_spans(fmt, spans, nans)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.spans) + len(self.nan_bits)

    @property
    def is_empty(self) -> bool:
        return not self.spans and not self.nan_bits

    def contains(self, bits: int) -> bool:
        if bits in self.nan_bits:
            return True
        try:
            key = key_of_bits(self.fmt, bits)
        except ValueError:
            return False
        return any(lo <= key <= hi for lo, hi in self.spans)

    def select(self, index: int) -> int:
        """The ``index``-th member encoding (spans in key order, then
        NaN encodings) — the exhaustive sweep's address decoder."""
        if index < 0:
            raise IndexError(index)
        for lo, hi in self.spans:
            width = hi - lo + 1
            if index < width:
                return bits_of_key(self.fmt, lo + index)
            index -= width
        if index < len(self.nan_bits):
            return self.nan_bits[index]
        raise IndexError("region index out of range")

    def sample(self, rng: random.Random) -> int:
        return self.select(rng.randrange(self.size))

    def intersect(self, other: "BitRegion") -> "BitRegion":
        out: list[tuple[int, int]] = []
        for alo, ahi in self.spans:
            for blo, bhi in other.spans:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    out.append((lo, hi))
        nans = tuple(b for b in self.nan_bits if b in other.nan_bits)
        return BitRegion.from_spans(self.fmt, out, nans)

    def union(self, other: "BitRegion") -> "BitRegion":
        return BitRegion.from_spans(
            self.fmt,
            list(self.spans) + list(other.spans),
            self.nan_bits + other.nan_bits,
        )

    def to_dict(self) -> dict:
        return {
            "fmt": self.fmt.name,
            "spans": [list(s) for s in self.spans],
            "nan_bits": list(self.nan_bits),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BitRegion":
        fmt = FORMATS_BY_NAME[data["fmt"]]
        return cls.from_spans(
            fmt,
            [tuple(s) for s in data["spans"]],
            tuple(data["nan_bits"]),
        )

    def describe(self) -> str:
        parts = []
        for lo, hi in self.spans:
            a = SoftFloat(self.fmt, bits_of_key(self.fmt, lo))
            b = SoftFloat(self.fmt, bits_of_key(self.fmt, hi))
            parts.append(f"[{a!s}, {b!s}]" if lo != hi else f"{{{a!s}}}")
        if self.nan_bits:
            parts.append(f"{len(self.nan_bits)} NaN")
        return " ∪ ".join(parts) if parts else "(empty)"

    def lattice_points(self, *, max_interior: int = 3) -> list[int]:
        """The deterministic probe tier of this region: landmark corpus
        members it admits, every span endpoint, and span midpoints."""
        out: list[int] = []
        seen: set[int] = set()

        def add(bits: int) -> None:
            if bits not in seen:
                seen.add(bits)
                out.append(bits)

        for value in special_values(self.fmt):
            if self.contains(value.bits):
                add(value.bits)
        for lo, hi in self.spans:
            add(bits_of_key(self.fmt, lo))
            add(bits_of_key(self.fmt, hi))
            width = hi - lo + 1
            for i in range(1, min(max_interior, width - 1) + 1):
                add(bits_of_key(self.fmt, lo + width * i // (max_interior + 1)))
        for bits in self.nan_bits:
            add(bits)
        return out


# ----------------------------------------------------------------------
# Backward refinement over the interval domain
# ----------------------------------------------------------------------
_ENV = FPEnv()


def _widen_outward(
    lo: SoftFloat, hi: SoftFloat, steps: int = 2
) -> tuple[SoftFloat, SoftFloat]:
    """Pad an inverted hull by a few ulps so inversion slop never
    excludes a reachable witness."""
    for _ in range(steps):
        if not (lo.is_inf and lo.is_negative):
            lo = next_down(lo, _ENV)
        if not (hi.is_inf and not hi.is_negative):
            hi = next_up(hi, _ENV)
    return lo, hi


def _hull_from_probes(
    op: str, point_sets: list[list[SoftFloat]]
) -> tuple[SoftFloat, SoftFloat] | None:
    """Probe ``op`` over every corner combination under both directed
    roundings; the non-NaN extremes are the inverted hull."""
    from repro.softfloat.directed import down_env, up_env

    combos: list[tuple[SoftFloat, ...]] = [()]
    for pts in point_sets:
        combos = [c + (p,) for c in combos for p in pts]
    results: list[SoftFloat] = []
    for combo in combos:
        for env in (down_env(), up_env()):
            r, _ = probe_op(op, *combo, env=env)
            if not r.is_nan:
                results.append(r)
    if not results:
        return None
    return _min_sf(results), _max_sf(results)


def _points(value: AbstractValue) -> list[SoftFloat]:
    pts = _materialize_zeros(value).corner_points()
    return pts if pts else [SoftFloat.zero(value.fmt)]


def _spans_zero(value: AbstractValue) -> bool:
    value = _materialize_zeros(value)
    if value.lo is None:
        return False
    zero = SoftFloat.zero(value.fmt)
    return _le(value.lo, zero) and _le(zero, value.hi)


def _ranged(
    fmt: FloatFormat,
    hull: tuple[SoftFloat, SoftFloat] | None,
    *,
    maybe_nan: bool = False,
) -> AbstractValue | None:
    if hull is None:
        return None
    lo, hi = _widen_outward(*hull)
    return AbstractValue.from_range(lo, hi, maybe_nan=maybe_nan)


def _inverse_operand(
    op: str,
    index: int,
    desired: AbstractValue,
    operand_values: list[AbstractValue],
) -> AbstractValue | None:
    """The set of values operand ``index`` should take for ``op`` to
    land in ``desired``, given the other operands' forward sets — or
    ``None`` when no sound steering inversion exists."""
    fmt = desired.fmt
    y = _points(desired)
    if op == "neg":
        return _transfer_neg(desired).value
    if op == "abs":
        hull = _hull_from_probes("sub", [[SoftFloat.zero(fmt)], y])
        if hull is None:
            return None
        lo, hi = hull
        lo = _min_sf([lo] + y)
        hi = _max_sf([hi] + y)
        return _ranged(fmt, (lo, hi), maybe_nan=desired.maybe_nan)
    if op == "sqrt":
        # x = y*y, plus the sign carried by sqrt(±0) = ±0.
        out = _ranged(fmt, _hull_from_probes("mul", [y, y]),
                      maybe_nan=desired.maybe_nan)
        if out is not None and desired.neg_zero:
            out = dataclasses.replace(out, neg_zero=True)
        return out
    if op in ("add", "sub"):
        other = operand_values[1 - index]
        s = _points(other)
        if op == "add":
            return _ranged(fmt, _hull_from_probes("sub", [y, s]))
        if index == 0:  # x - s = y  =>  x = y + s
            return _ranged(fmt, _hull_from_probes("add", [y, s]))
        return _ranged(fmt, _hull_from_probes("sub", [s, y]))
    if op == "mul":
        other = operand_values[1 - index]
        if _spans_zero(other) or other.can_zero:
            return None  # unbounded inverse: no refinement
        return _ranged(fmt, _hull_from_probes("div", [y, _points(other)]))
    if op == "div":
        if index == 0:  # x / b = y  =>  x = y * b
            return _ranged(
                fmt, _hull_from_probes("mul", [y, _points(operand_values[1])])
            )
        if _spans_zero(desired) or desired.can_zero:
            return None
        return _ranged(
            fmt, _hull_from_probes("div", [_points(operand_values[0]), y])
        )
    if op == "fma":
        a, b, c = operand_values
        if index == 2:  # c = y - a*b
            product = _hull_from_probes("mul", [_points(a), _points(b)])
            if product is None:
                return None
            plo, phi = product
            return _ranged(fmt, _hull_from_probes("sub", [y, [plo, phi]]))
        other = b if index == 0 else a
        if _spans_zero(other) or other.can_zero:
            return None
        diff = _hull_from_probes("sub", [y, _points(c)])
        if diff is None:
            return None
        dlo, dhi = diff
        return _ranged(fmt, _hull_from_probes("div", [[dlo, dhi],
                                                      _points(other)]))
    return None  # min/max/rem and anything else: forward value only


def _intersect_abstract(
    a: AbstractValue, b: AbstractValue
) -> AbstractValue | None:
    """Set intersection of two abstractions (``None`` when empty)."""
    a = _materialize_zeros(a)
    b = _materialize_zeros(b)
    lo = hi = None
    if a.lo is not None and b.lo is not None:
        lo = _max_sf([a.lo, b.lo])
        hi = _min_sf([a.hi, b.hi])
        if _lt(hi, lo):
            lo = hi = None
    pos_zero = a.pos_zero and b.pos_zero
    neg_zero = a.neg_zero and b.neg_zero
    maybe_nan = a.maybe_nan and b.maybe_nan
    maybe_snan = a.maybe_snan and b.maybe_snan
    if lo is None and not (pos_zero or neg_zero or maybe_nan):
        return None
    if lo is not None:
        zero = SoftFloat.zero(a.fmt)
        spans = _le(lo, zero) and _le(zero, hi)
        pos_zero = pos_zero or (spans and a.pos_zero and b.pos_zero)
    return AbstractValue(
        a.fmt, lo, hi,
        maybe_nan=maybe_nan or maybe_snan, maybe_snan=maybe_snan,
        pos_zero=pos_zero, neg_zero=neg_zero,
    )


def refine_toward(
    analysis: Analysis, node: Expr, desired: AbstractValue
) -> dict[str, AbstractValue]:
    """Per-variable value sets that can steer ``node`` into ``desired``.

    Walks from ``node`` to its leaves, inverting each operation
    interval-wise against the forward facts; a variable reached through
    several paths keeps the intersection of its constraints (falling
    back to the less-refined one when they conflict — refinement is
    steering, so a sound fallback beats an empty region).
    """
    out: dict[str, AbstractValue] = {}

    def walk(node: Expr, desired: AbstractValue) -> None:
        fact = analysis.fact(node)
        met = _intersect_abstract(desired, fact.value)
        if met is None:
            met = fact.value
        if isinstance(node, Var):
            prev = out.get(node.name)
            if prev is None:
                out[node.name] = met
            else:
                both = _intersect_abstract(prev, met)
                if both is not None:
                    out[node.name] = both
            return
        if isinstance(node, Const):
            return
        children = node.children()
        child_values = [analysis.fact(c).value for c in children]
        for index, child in enumerate(children):
            inverted = _inverse_operand(fact.op, index, met, child_values)
            walk(child, inverted if inverted is not None
                 else child_values[index])

    walk(node, desired)
    return out


# ----------------------------------------------------------------------
# Search goals: one per candidate hazard
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SearchGoal:
    """One hazard a guided search should chase: a name (for coverage
    reporting), the per-variable bit regions to sample, and a human
    explanation of why these regions."""

    name: str
    regions: tuple[tuple[str, BitRegion], ...]
    detail: str = ""

    def region_map(self) -> dict[str, BitRegion]:
        return dict(self.regions)

    def describe(self) -> str:
        parts = ", ".join(
            f"{name} ∈ {region.describe()}" for name, region in self.regions
        )
        return f"{self.name}: {parts or 'admitted ranges'}"


def variable_regions(
    expr: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None = None,
    *,
    nan: bool = False,
) -> dict[str, BitRegion]:
    """The admitted sampling space per variable: the binding's abstract
    hull when bound, the whole format otherwise."""
    fmt = config.fmt
    out: dict[str, BitRegion] = {}
    for name in expr_variables(expr):
        if bindings is not None and name in bindings:
            av = as_abstract(bindings[name], fmt)
            out[name] = BitRegion.from_abstract(av, nan=nan)
        else:
            out[name] = BitRegion.full(
                fmt, nan="canonical" if nan else False
            )
    return out


def _pow2(fmt: FloatFormat, k: int) -> SoftFloat:
    """``2^k`` clamped into ``fmt`` (steering scale factor)."""
    biased = k + fmt.bias
    if biased >= fmt.max_biased_exp:
        return SoftFloat.max_finite(fmt)
    if biased < 1:
        return SoftFloat.min_subnormal(fmt)
    return SoftFloat(fmt, fmt.pack(0, biased, 0))


def _subnormal_band(fmt: FloatFormat) -> AbstractValue:
    edge = next_down(SoftFloat.min_normal(fmt), _ENV)
    return AbstractValue.from_range(-edge, edge)


def _zero_band(fmt: FloatFormat) -> AbstractValue:
    tiny = SoftFloat.min_subnormal(fmt)
    return AbstractValue.from_range(-tiny, tiny)


def _overflow_bands(fmt: FloatFormat) -> list[AbstractValue]:
    from repro.softfloat.directed import down_env

    half, _ = probe_op(
        "mul", SoftFloat.max_finite(fmt), _pow2(fmt, -1), env=down_env()
    )
    return [
        AbstractValue.from_range(half, SoftFloat.inf(fmt, 0)),
        AbstractValue.from_range(SoftFloat.inf(fmt, 1), -half),
    ]


def _goal_regions(
    var_map: Mapping[str, AbstractValue],
    base: Mapping[str, BitRegion],
) -> tuple[tuple[str, BitRegion], ...] | None:
    """Intersect refined per-variable sets with the admitted base
    regions; drop vacuous constraints, reject infeasible goals."""
    out: list[tuple[str, BitRegion]] = []
    for name, value in sorted(var_map.items()):
        if name not in base:
            continue
        region = BitRegion.from_abstract(value, nan=False).intersect(
            base[name]
        )
        if region.is_empty:
            return None  # this hazard cannot fire on admitted inputs
        if region.size < base[name].size:
            out.append((name, region))
    return tuple(out)


def divergence_goals(
    expr: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None = None,
    *,
    safety=None,
    max_goals: int = 32,
) -> tuple[SearchGoal, ...]:
    """Derive the guided search's goal list for one expression/config.

    Goals come from three analyses: the environment (FTZ flush and DAZ
    preconditions — results or inputs in the subnormal band), the
    applied value-changing passes (cancellation/absorption sites for
    reassociation, the whole admitted space for contraction — any
    inexact product exposes the removed rounding), and the exception
    flows (per-node OVERFLOW / UNDERFLOW / DIV_BY_ZERO / INVALID
    preconditions, backward-refined to the variables).
    """
    from repro.staticfp.safety import predict_pass_safety

    if safety is None:
        safety = predict_pass_safety(expr, config, bindings)
    fmt = config.fmt
    base = variable_regions(expr, config, bindings)
    analysis = analyze(expr, bindings, config)
    goals: list[SearchGoal] = []
    seen: set[str] = set()

    def add(name: str, regions, detail: str) -> None:
        if regions is None or name in seen or len(goals) >= max_goals:
            return
        seen.add(name)
        goals.append(SearchGoal(name=name, regions=regions, detail=detail))

    # --- environment hazards -----------------------------------------
    if config.daz:
        band = _subnormal_band(fmt)
        for name in sorted(base):
            fact_value = analysis.bindings.get(name)
            if fact_value is not None and not fact_value.can_subnormal:
                continue
            regions = _goal_regions({name: band}, base)
            add(f"daz:{name}", regions,
                f"DAZ reads a subnormal {name} as zero")
    if config.ftz:
        tiny = FPFlag.UNDERFLOW | FPFlag.DENORMAL_RESULT
        for node in analysis.order:
            fact = analysis.fact(node)
            if fact.op in ("const", "var") or not (fact.may_flags & tiny):
                continue
            refined = refine_toward(analysis, node, _subnormal_band(fmt))
            add(f"ftz:{node}", _goal_regions(refined, base),
                f"FTZ flushes a subnormal result of '{node}'")

    # --- value-changing pass applications ----------------------------
    for verdict in safety.value_changing_applied:
        if verdict.pass_name == "fma-contraction":
            add(f"contract:{verdict.before}", (),
                "contraction removes the product rounding; any inexact"
                " admitted product exposes it")
            continue
        before_analysis = analyze(verdict.before, bindings, config)
        for node in before_analysis.order:
            fact = before_analysis.fact(node)
            info = fact.cancellation
            if info is not None and info.possible:
                scale = _pow2(fmt, -(fmt.precision - 1))
                mag = fact.value.max_magnitude()
                if mag.is_zero or mag.is_inf:
                    band = _zero_band(fmt)
                else:
                    from repro.softfloat.directed import up_env

                    t, _ = probe_op("mul", mag, scale, env=up_env())
                    band = AbstractValue.from_range(-t, t)
                refined = refine_toward(before_analysis, node, band)
                add(f"cancel:{verdict.pass_name}:{node}",
                    _goal_regions(refined, base),
                    f"{verdict.pass_name} reorders a cancellation-prone"
                    f" sum at '{node}'")
            if fact.absorption is not None and fact.absorption.possible:
                add(f"absorb:{verdict.pass_name}:{node}", (),
                    f"{verdict.pass_name} reorders an absorption-prone"
                    f" sum at '{node}'")

    # --- exception flows ----------------------------------------------
    for node in analysis.order:
        fact = analysis.fact(node)
        if fact.op in ("const", "var"):
            continue
        if fact.may_flags & FPFlag.OVERFLOW:
            for i, band in enumerate(_overflow_bands(fmt)):
                refined = refine_toward(analysis, node, band)
                add(f"overflow{'-+'[1 - i]}:{node}",
                    _goal_regions(refined, base),
                    f"'{node}' can overflow")
        if fact.may_flags & FPFlag.UNDERFLOW:
            refined = refine_toward(analysis, node, _subnormal_band(fmt))
            add(f"underflow:{node}", _goal_regions(refined, base),
                f"'{node}' can underflow")
        if fact.may_flags & FPFlag.DIV_BY_ZERO and isinstance(node, Binary) \
                and node.op is BinOp.DIV:
            refined = refine_toward(analysis, node.right, _zero_band(fmt))
            add(f"divzero:{node}", _goal_regions(refined, base),
                f"the divisor of '{node}' can be zero")
        if fact.may_flags & FPFlag.INVALID:
            var_map = _invalid_preconditions(analysis, node, fmt)
            if var_map:
                add(f"invalid:{node}", _goal_regions(var_map, base),
                    f"'{node}' can raise INVALID")
    return tuple(goals)


def _invalid_preconditions(
    analysis: Analysis, node: Expr, fmt: FloatFormat
) -> dict[str, AbstractValue]:
    """Steer toward the operand combination that makes ``node`` raise
    INVALID (0×inf, 0/0, inf−inf, sqrt of negative)."""
    from repro.optsim.ast import FMA, Unary, UnOp

    fact = analysis.fact(node)
    zero = _zero_band(fmt)
    inf_pos = AbstractValue.from_range(
        SoftFloat.max_finite(fmt), SoftFloat.inf(fmt, 0)
    )
    inf_neg = _transfer_neg(inf_pos).value
    out: dict[str, AbstractValue] = {}

    def merge(refined: Mapping[str, AbstractValue]) -> None:
        for name, value in refined.items():
            prev = out.get(name)
            if prev is None:
                out[name] = value
            else:
                both = _intersect_abstract(prev, value)
                if both is not None:
                    out[name] = both

    if isinstance(node, Unary) and node.op is UnOp.SQRT:
        operand = analysis.fact(node.operand).value
        if operand.lo is not None and operand.can_neg:
            band = AbstractValue.from_range(
                SoftFloat.inf(fmt, 1), -SoftFloat.min_subnormal(fmt)
            )
            merge(refine_toward(analysis, node.operand, band))
    elif isinstance(node, Binary) and node.op is BinOp.DIV:
        merge(refine_toward(analysis, node.left, zero))
        merge(refine_toward(analysis, node.right, zero))
    elif isinstance(node, Binary) and node.op is BinOp.MUL:
        left = analysis.fact(node.left).value
        right = analysis.fact(node.right).value
        if left.can_zero or _spans_zero(left):
            merge(refine_toward(analysis, node.left, zero))
            band = inf_pos if right.can_pinf else inf_neg
            merge(refine_toward(analysis, node.right, band))
        elif right.can_zero or _spans_zero(right):
            merge(refine_toward(analysis, node.right, zero))
            band = inf_pos if left.can_pinf else inf_neg
            merge(refine_toward(analysis, node.left, band))
    elif isinstance(node, Binary) and node.op in (BinOp.ADD, BinOp.SUB):
        left = analysis.fact(node.left).value
        merge(refine_toward(
            analysis, node.left, inf_pos if left.can_pinf else inf_neg
        ))
        want = inf_neg if left.can_pinf else inf_pos
        if node.op is BinOp.SUB:
            want = _transfer_neg(want).value
        merge(refine_toward(analysis, node.right, want))
    elif isinstance(node, FMA):
        a = analysis.fact(node.a).value
        if a.can_zero or _spans_zero(a):
            merge(refine_toward(analysis, node.a, zero))
    return out
