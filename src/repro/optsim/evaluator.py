"""Expression evaluation under a machine configuration.

:func:`evaluate` runs an expression through
:func:`repro.optsim.ast.interpret` with :class:`ScalarSemantics`: the
softfloat engine in the config's format, rounding mode, and FTZ/DAZ
setting, collecting the sticky exception flags the run raises.
:func:`evaluate_strict` is the reference semantics every compliance
question compares against: strict IEEE, no tree transformations.

Note the separation of concerns: *this module never rewrites the tree* —
compiler transformations live in :mod:`repro.optsim.passes` and are
applied by :func:`repro.optsim.pipeline.optimize` before evaluation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.errors import OptimizationError
from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.optsim.ast import (
    FMA,
    OP_NAMES,
    Binary,
    Const,
    Expr,
    Unary,
    UnOp,
    Var,
    interpret,
)
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import (
    SoftFloat,
    convert_format,
    fp_add,
    fp_div,
    fp_fma,
    fp_max,
    fp_min,
    fp_mul,
    fp_remainder,
    fp_sqrt,
    fp_sub,
    parse_softfloat,
)
from repro.softfloat.formats import FloatFormat

__all__ = ["KERNELS", "EvalResult", "ScalarSemantics", "evaluate",
           "evaluate_strict", "bind"]

#: The softfloat kernel behind each rounding step, by op name: the
#: binary operators, ``sqrt``, ``fma`` and the ``convert`` of a load.
KERNELS = {
    "add": fp_add,
    "sub": fp_sub,
    "mul": fp_mul,
    "div": fp_div,
    "rem": fp_remainder,
    "min": fp_min,
    "max": fp_max,
    "sqrt": fp_sqrt,
    "fma": fp_fma,
    "convert": convert_format,
}


@dataclasses.dataclass(frozen=True)
class EvalResult:
    """The value and the exception footprint of one evaluation."""

    value: SoftFloat
    flags: FPFlag
    config: MachineConfig

    def __str__(self) -> str:
        from repro.fpenv.flags import flag_names

        names = ",".join(flag_names(self.flags)) or "none"
        return f"{self.value!s} [{names}] under {self.config.name}"


def bind(
    config: MachineConfig, **values: object
) -> dict[str, SoftFloat]:
    """Build a binding dict, converting plain numbers to the config's
    format.

    >>> from repro.optsim.machine import STRICT
    >>> bind(STRICT, a=1.5)["a"]
    SoftFloat(binary64, 1.5)
    """
    from repro.softfloat import sf

    return {name: sf(value, config.fmt) for name, value in values.items()}


def evaluate(
    expr: Expr,
    bindings: Mapping[str, SoftFloat],
    config: MachineConfig = STRICT,
    env: FPEnv | None = None,
) -> EvalResult:
    """Interpret ``expr`` under ``config``.

    ``bindings`` maps variable names to SoftFloat values; values in a
    different format are converted (with rounding) on use, modelling a
    load into the destination register width.  A fresh environment is
    created from the config unless ``env`` is supplied (in which case
    flags accumulate there and the config's FTZ/DAZ/rounding are
    *ignored* in favor of the environment's).
    """
    local_env = env if env is not None else config.fresh_env()
    value = interpret(expr, ScalarSemantics(bindings, config.fmt, local_env))
    return EvalResult(value=value, flags=local_env.flags, config=config)


def evaluate_strict(
    expr: Expr, bindings: Mapping[str, SoftFloat], fmt=None
) -> EvalResult:
    """Reference semantics: strict IEEE in the given (default binary64)
    format, default rounding, no FTZ/DAZ, no transformations."""
    config = STRICT if fmt is None else STRICT.replace(fmt=fmt)
    return evaluate(expr, bindings, config)


@dataclasses.dataclass(slots=True)
class ScalarSemantics:
    """:func:`evaluate`'s semantics for :func:`~repro.optsim.ast.interpret`:
    softfloat kernels in ``fmt``, raising flags into one shared ``env``.

    Every rounding step goes through :meth:`apply`, so a variant that
    rounds differently (the per-node flag capture, the exact oracle)
    overrides one method.
    """

    bindings: Mapping[str, SoftFloat]
    fmt: FloatFormat
    env: FPEnv | None

    def apply(self, node: Expr, op: str, *args: object) -> SoftFloat:
        """Run ``op``'s kernel on ``args`` for ``node``."""
        return KERNELS[op](*args, self.env)

    def const(self, node: Const) -> SoftFloat:
        # Literals are rounded into the destination format quietly:
        # constant conversion happens at compile time, so its inexactness
        # is not a runtime exception (itself a documented subtlety).
        return parse_softfloat(node.literal, self.fmt)

    def var(self, node: Var) -> SoftFloat:
        try:
            value = self.bindings[node.name]
        except KeyError:
            raise OptimizationError(f"unbound variable {node.name!r}")
        # Identity first: the dataclass ``!=`` on formats is a Python-level
        # call, and this runs on every variable load.
        if value.fmt is not self.fmt and value.fmt != self.fmt:
            # A load into the destination register width rounds.
            value = self.apply(node, "convert", value, self.fmt)
        return value

    def unary(self, node: Unary, x: SoftFloat) -> SoftFloat:
        if node.op is UnOp.NEG:
            return -x
        if node.op is UnOp.ABS:
            return abs(x)
        return self.apply(node, "sqrt", x)

    def binary(self, node: Binary, left: SoftFloat,
               right: SoftFloat) -> SoftFloat:
        return self.apply(node, OP_NAMES[node.op], left, right)

    def fma(self, node: FMA, a: SoftFloat, b: SoftFloat,
            c: SoftFloat) -> SoftFloat:
        return self.apply(node, "fma", a, b, c)
