"""Oracle evaluation of optsim expression trees.

:func:`oracle_evaluate` runs an expression through
:func:`repro.optsim.ast.interpret` with the scalar evaluator's
semantics, except that every ``+ - * / sqrt fma`` node is computed by
the exact-rounding oracle instead of the softfloat engine, accumulating
the oracle's flag sets.  Compliance verdicts can then be
*cross-validated*: the strict-IEEE side of a
:class:`~repro.optsim.compliance.DivergenceReport` is recomputed
against exact rounding, so a verdict can no longer be an artifact of a
shared engine bug.

``min``/``max``/``%`` nodes have no oracle implementation (they are
exact selections / exact remainders with no rounding step to verify)
and fall back to the engine; flag accumulation still goes through the
shared environment so footprints stay comparable.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.fpenv.flags import FPFlag
from repro.oracle.exact import OracleConfig, oracle_operation
from repro.optsim.ast import Expr, interpret
from repro.optsim.evaluator import ScalarSemantics
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import SoftFloat

__all__ = ["oracle_evaluate", "OracleEvalResult"]

#: The ops the oracle rounds.  Loads and ``min``/``max``/``%`` stay on
#: the engine: they have no rounding step to verify.
_ORACLE_OPS = frozenset({"add", "sub", "mul", "div", "sqrt", "fma"})


class OracleEvalResult:
    """Value and flag footprint of an oracle evaluation."""

    __slots__ = ("value", "flags")

    def __init__(self, value: SoftFloat, flags: FPFlag) -> None:
        self.value = value
        self.flags = flags


def oracle_evaluate(
    expr: Expr,
    bindings: Mapping[str, SoftFloat],
    config: MachineConfig = STRICT,
) -> OracleEvalResult:
    """Evaluate ``expr`` with every rounding performed by the oracle."""
    semantics = _OracleSemantics(bindings, config)
    return OracleEvalResult(interpret(expr, semantics), semantics.env.flags)


class _OracleSemantics(ScalarSemantics):
    """Scalar semantics with every ``+ - * / sqrt fma`` rounded by the
    oracle, its flags raised into the same environment as the engine's.
    """

    __slots__ = ("cfg",)

    def __init__(self, bindings: Mapping[str, SoftFloat],
                 config: MachineConfig) -> None:
        super().__init__(bindings, config.fmt, config.fresh_env())
        self.cfg = OracleConfig(rounding=config.rounding, ftz=config.ftz,
                                daz=config.daz)

    def apply(self, node: Expr, op: str, *args: object) -> SoftFloat:
        if op not in _ORACLE_OPS:
            return super().apply(node, op, *args)
        result = oracle_operation(op, self.cfg, *args)
        self.env.raise_flags(result.flags, op)
        return result.value(self.fmt)
