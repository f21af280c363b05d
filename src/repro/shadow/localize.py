"""Error localization: which operation in an expression loses accuracy.

In the spirit of the dynamic-analysis tools the paper cites (Benz et
al.'s accuracy-problem finder, cancellation detection), this ranks each
operation node by the *local* error it introduces: the difference
between the node's working-precision result and the correctly rounded
working-precision value of its exact (shadow) result, measured in ULPs.
Catastrophic cancellation shows up as a node whose inputs are accurate
but whose output is far from the exact value's rounding.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from repro.optsim.ast import Const, Expr, Var, interpret, walk_unique
from repro.optsim.evaluator import ScalarSemantics
from repro.optsim.machine import STRICT, MachineConfig
from repro.shadow.shadow import (
    WIDE_FORMAT,
    _wide_evaluate,
    _working_bindings,
    ulp_distance,
)
from repro.softfloat import SoftFloat

__all__ = ["NodeError", "localize_errors"]


@dataclasses.dataclass(frozen=True)
class NodeError:
    """Accuracy accounting for one operation node."""

    node: Expr
    working: SoftFloat
    shadow_exact: Fraction | None
    total_ulps: float | None  # error of working vs exact subtree value

    def describe(self) -> str:
        ulps = "n/a" if self.total_ulps is None else f"{self.total_ulps:.2f}"
        return f"'{self.node}' = {self.working!s} (error {ulps} ulps)"


def localize_errors(
    expr: Expr,
    bindings: dict[str, object],
    *,
    config: MachineConfig = STRICT,
) -> list[NodeError]:
    """Per-node accuracy report, worst first.

    One pass evaluates every node in the working format and one in the
    wide shadow format; the ULP distance of each non-leaf node's
    working value from its shadow value is the node's accumulated
    error.  The root's entry equals the full shadow comparison.  A
    node object shared by several parents is reported once.
    """
    working_bindings = _working_bindings(bindings, config.fmt)
    working_values: dict[int, SoftFloat] = {}
    shadow_values: dict[int, SoftFloat] = {}
    interpret(expr, ScalarSemantics(working_bindings, config.fmt,
                                    config.fresh_env()), working_values)
    _wide_evaluate(expr, working_bindings, WIDE_FORMAT, shadow_values)
    reports = []
    for node in walk_unique(expr):
        if isinstance(node, (Const, Var)):
            continue
        working = working_values[id(node)]
        shadow = shadow_values[id(node)]
        if working.is_finite and shadow.is_finite:
            exact = shadow.to_fraction()
            ulps = ulp_distance(working, exact)
        else:
            exact, ulps = None, None
        reports.append(
            NodeError(
                node=node, working=working, shadow_exact=exact,
                total_ulps=ulps,
            )
        )
    reports.sort(
        key=lambda r: (r.total_ulps is None, -(r.total_ulps or 0.0))
    )
    return reports
