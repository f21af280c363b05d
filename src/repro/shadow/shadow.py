"""Shadow execution: re-run floating point code at higher precision.

The paper's conclusions call for a system that lets "code written using
floating point ... be seamlessly compiled to use arbitrary precision"
so developers can sanity-check results (and any optimizations they
chose).  This module does that for :mod:`repro.optsim` expressions: the
same tree is evaluated in the working format and in a reference — an
exact rational evaluation when the expression is sqrt-free, otherwise a
very wide binary format — and the divergence is quantified in relative
error and ULPs.
"""

from __future__ import annotations

import dataclasses
import operator
from fractions import Fraction

from repro.errors import ParseError
from repro.optsim.ast import (
    FMA,
    Binary,
    BinOp,
    Const,
    Expr,
    Unary,
    UnOp,
    Var,
    interpret,
)
from repro.optsim.evaluator import ScalarSemantics, evaluate
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import SoftFloat, convert_format, sf
from repro.softfloat.formats import FloatFormat
from repro.softfloat.parse import _parse_exact

__all__ = ["ShadowResult", "shadow_evaluate", "WIDE_FORMAT", "ulp_distance"]

#: The default reference format: 64 extra significand bits over
#: binary128 (beyond any double-rounding artifact of the workloads here).
WIDE_FORMAT = FloatFormat(19, 240, "wide240")


def ulp_distance(value: SoftFloat, reference: Fraction) -> float:
    """Distance between a finite ``value`` and an exact ``reference`` in
    units of ``value``'s last place (0.5 = best possible rounding)."""
    from repro.softfloat.functions import ulp as ulp_of

    gap = ulp_of(value).to_fraction()
    if gap == 0:  # pragma: no cover - ulp is never zero
        raise ZeroDivisionError("zero ulp")
    ratio = abs(value.to_fraction() - reference) / gap
    try:
        return float(ratio)
    except OverflowError:
        return float("inf")


@dataclasses.dataclass(frozen=True)
class ShadowResult:
    """Outcome of one shadow evaluation."""

    expr: Expr
    working: SoftFloat
    reference: SoftFloat
    reference_exact: Fraction | None
    abs_error: float
    rel_error: float
    ulps: float | None

    @property
    def suspicious(self) -> bool:
        """True when the working result differs from the reference by
        more than 1 ULP (i.e. beyond a single final rounding), or when
        one side is exceptional and the other is not."""
        if self.working.is_nan or self.reference.is_nan:
            return self.working.is_nan != self.reference.is_nan
        if self.working.is_inf or self.reference.is_inf:
            return not self.working.same_bits(
                convert_format(self.reference, self.working.fmt)
            )
        return self.ulps is not None and self.ulps > 1.0

    def describe(self) -> str:
        """One-line summary."""
        ulps = "n/a" if self.ulps is None else f"{self.ulps:.2f}"
        verdict = "SUSPICIOUS" if self.suspicious else "consistent"
        return (
            f"'{self.expr}': working={self.working!s} "
            f"reference={self.reference!s} rel_err={self.rel_error:.3e} "
            f"ulps={ulps} -> {verdict}"
        )


_EXACT_BINOPS = {BinOp.ADD: operator.add, BinOp.SUB: operator.sub,
                 BinOp.MUL: operator.mul, BinOp.DIV: operator.truediv,
                 BinOp.MIN: min, BinOp.MAX: max}


@dataclasses.dataclass
class _ExactSemantics:
    """Exact rational arithmetic; ``None`` wherever a NaN or infinity
    arises, and for sqrt (not rational in general) and ``%`` (defined,
    but rarely useful exactly here).  ``None`` propagates to the root.
    """

    bindings: dict[str, SoftFloat]

    def const(self, node: Const) -> Fraction | None:
        try:
            return _parse_exact(node.literal)
        except ParseError:
            return None  # inf/nan literal

    def var(self, node: Var) -> Fraction | None:
        value = self.bindings[node.name]
        return value.to_fraction() if value.is_finite else None

    def unary(self, node: Unary, x: Fraction | None) -> Fraction | None:
        if x is None or node.op is UnOp.SQRT:
            return None
        return -x if node.op is UnOp.NEG else abs(x)

    def binary(self, node: Binary, left: Fraction | None,
               right: Fraction | None) -> Fraction | None:
        fn = _EXACT_BINOPS.get(node.op)
        if left is None or right is None or fn is None:
            return None
        if node.op is BinOp.DIV and right == 0:
            return None
        return fn(left, right)

    def fma(self, node: FMA, a: Fraction | None, b: Fraction | None,
            c: Fraction | None) -> Fraction | None:
        if a is None or b is None or c is None:
            return None
        return a * b + c


def _working_bindings(
    bindings: dict[str, object], fmt: FloatFormat
) -> dict[str, SoftFloat]:
    """``bindings`` with plain numbers rounded into ``fmt``."""
    return {
        name: value if isinstance(value, SoftFloat) else sf(value, fmt)
        for name, value in bindings.items()
    }


def _wide_evaluate(
    expr: Expr,
    working_bindings: dict[str, SoftFloat],
    fmt: FloatFormat,
    values: dict[int, SoftFloat] | None = None,
) -> SoftFloat:
    """Strict IEEE evaluation in the wide ``fmt`` from the working
    inputs; ``values`` receives every node's value."""
    wide_bindings = {
        name: convert_format(value, fmt)
        for name, value in working_bindings.items()
    }
    semantics = ScalarSemantics(wide_bindings, fmt, STRICT.fresh_env())
    return interpret(expr, semantics, values)


def shadow_evaluate(
    expr: Expr,
    bindings: dict[str, object],
    *,
    config: MachineConfig = STRICT,
    reference_fmt: FloatFormat = WIDE_FORMAT,
) -> ShadowResult:
    """Evaluate ``expr`` in the working config and against the high-
    precision/exact reference.

    ``bindings`` values may be plain numbers; they are converted into
    the working format first (the reference sees the *same* rounded
    inputs the working run saw — shadow execution diagnoses the
    computation, not the input conversion).
    """
    working_bindings = _working_bindings(bindings, config.fmt)
    working = evaluate(expr, working_bindings, config).value

    exact = interpret(expr, _ExactSemantics(working_bindings))
    if exact is not None:
        reference = sf(exact, reference_fmt)
    else:
        reference = _wide_evaluate(expr, working_bindings, reference_fmt)

    if working.is_nan or reference.is_nan or working.is_inf or reference.is_inf:
        return ShadowResult(
            expr=expr, working=working, reference=reference,
            reference_exact=exact, abs_error=float("nan"),
            rel_error=float("nan"), ulps=None,
        )
    ref_value = exact if exact is not None else reference.to_fraction()
    err = abs(working.to_fraction() - ref_value)
    rel = float(err / abs(ref_value)) if ref_value != 0 else float(err != 0)
    return ShadowResult(
        expr=expr, working=working, reference=reference,
        reference_exact=exact, abs_error=float(err), rel_error=rel,
        ulps=ulp_distance(working, ref_value),
    )
