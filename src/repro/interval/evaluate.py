"""Interval evaluation of optsim expressions.

Bridges the expression IR and the interval substrate: run any parsed
expression with interval inputs and get a rigorous enclosure of every
real result the input boxes could produce — the "paranoid developer"
mode the paper's conclusions wish for, applied to whole expressions.
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Mapping

from repro.errors import OptimizationError
from repro.interval.interval import Interval, IntervalError
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
from repro.softfloat.formats import BINARY64, FloatFormat

__all__ = ["interval_evaluate"]

_BINOPS = {BinOp.ADD: operator.add, BinOp.SUB: operator.sub,
           BinOp.MUL: operator.mul, BinOp.DIV: operator.truediv}


def interval_evaluate(
    expr: Expr,
    bindings: Mapping[str, Interval | float | int],
    fmt: FloatFormat = BINARY64,
) -> Interval:
    """Evaluate ``expr`` over interval inputs with outward rounding.

    Plain numbers in ``bindings`` become point intervals.  Constants in
    the tree become the tightest enclosure of their literal (so ``0.1``
    contributes its real value, not just the nearest double).
    ``min``/``max``/``rem`` are not supported (``IntervalError``).
    """
    boxed = {
        name: value if isinstance(value, Interval)
        else Interval.from_value(value, fmt)
        for name, value in bindings.items()
    }
    return interpret(expr, _IntervalSemantics(boxed, fmt))


@dataclasses.dataclass
class _IntervalSemantics:
    """Outward-rounded interval arithmetic, in ``fmt``."""

    bindings: Mapping[str, Interval]
    fmt: FloatFormat

    def const(self, node: Const) -> Interval:
        return Interval.from_decimal(node.literal, self.fmt)

    def var(self, node: Var) -> Interval:
        try:
            return self.bindings[node.name]
        except KeyError:
            raise OptimizationError(f"unbound variable {node.name!r}")

    def unary(self, node: Unary, x: Interval) -> Interval:
        if node.op is UnOp.NEG:
            return -x
        if node.op is UnOp.ABS:
            return x.abs()
        return x.sqrt()

    def binary(self, node: Binary, left: Interval,
               right: Interval) -> Interval:
        fn = _BINOPS.get(node.op)
        if fn is None:
            raise IntervalError(
                f"operator {node.op.value!r} has no interval extension here"
            )
        return fn(left, right)

    def fma(self, node: FMA, a: Interval, b: Interval,
            c: Interval) -> Interval:
        return a * b + c
