"""Batched expression evaluation over the softfloat backend protocol.

:func:`evaluate_many` answers what :func:`repro.optsim.evaluator.evaluate`
answers, for *every* candidate binding at once: it runs one
:func:`repro.optsim.ast.interpret` pass whose semantics computes each
node across all lanes with a :class:`~repro.softfloat.SoftFloatBackend`
before the walk moves on.  Per-lane sticky flags accumulate exactly as
a fresh :class:`~repro.fpenv.FPEnv` would collect them lane by lane —
flag accumulation is a set union, so node order inside one lane and
lane order inside one node commute.

Operations outside the backend protocol (``REM``, ``MIN``, ``MAX``,
cross-format variable loads) fall back to the scalar engine lane by
lane, so the function is total over the expression IR while the hot
arithmetic rides the batch kernels.  The cross-backend differential
suite covers the resulting bit-identity with the scalar evaluator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import OptimizationError
from repro.fpenv.flags import FPFlag
from repro.optsim.ast import (
    FMA,
    OP_NAMES,
    Binary,
    BinOp,
    Const,
    Expr,
    Unary,
    UnOp,
    Var,
    expr_variables,
    interpret,
)
from repro.optsim.evaluator import KERNELS, EvalResult
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import SoftFloat, convert_format, parse_softfloat
from repro.softfloat.backend import SoftFloatBackend, get_backend

__all__ = ["evaluate_lanes", "evaluate_many"]

#: Binary AST operations carried by the backend protocol.
_BACKEND_BINOPS = {BinOp.ADD, BinOp.SUB, BinOp.MUL, BinOp.DIV}


def evaluate_many(
    expr: Expr,
    bindings_list: Sequence[Mapping[str, SoftFloat]],
    config: MachineConfig = STRICT,
    backend: SoftFloatBackend | str = "auto",
) -> list[EvalResult]:
    """Evaluate ``expr`` under ``config`` for every binding at once.

    Returns one :class:`~repro.optsim.evaluator.EvalResult` per binding,
    bit-identical (value and flags) to calling
    :func:`repro.optsim.evaluator.evaluate` in a loop.

    >>> from repro.optsim import parse_expr, STRICT
    >>> from repro.softfloat import sf
    >>> expr = parse_expr("a + b")
    >>> results = evaluate_many(
    ...     expr, [{"a": sf(0.1), "b": sf(0.2)}, {"a": sf(1.0), "b": sf(2.0)}]
    ... )
    >>> [str(r.value) for r in results]
    ['0.30000000000000004', '3.0']
    """
    backend_obj = get_backend(backend)
    n = len(bindings_list)
    flags = np.zeros(n, dtype=np.uint8)
    if n == 0:
        return []
    fmt = config.fmt
    lanes = {}
    for name in expr_variables(expr):
        lane = lanes[name] = np.zeros(n, dtype=np.uint64)
        for i, bindings in enumerate(bindings_list):
            try:
                value = bindings[name]
            except KeyError:
                raise OptimizationError(f"unbound variable {name!r}")
            if value.fmt != fmt:
                env = config.fresh_env()
                value = convert_format(value, fmt, env)
                flags[i] |= np.uint8(env.flags.value)
            lane[i] = value.bits

    bits = interpret(expr, _LaneSemantics(lanes, config, backend_obj, flags))
    return [
        EvalResult(
            value=SoftFloat(fmt, int(bits[i])),
            flags=FPFlag(int(flags[i])),
            config=config,
        )
        for i in range(n)
    ]


def evaluate_lanes(
    expr: Expr,
    var_lanes: Mapping[str, np.ndarray],
    config: MachineConfig = STRICT,
    backend: SoftFloatBackend | str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`evaluate_many` at the bits level, for pre-packed lanes.

    ``var_lanes`` maps each variable to a ``uint64`` array of packed
    encodings *already in the config's format* (no per-lane conversion
    happens — this is the hot path exhaustive sweeps drive, where the
    operands come straight out of a bit-region enumerator rather than
    from SoftFloat binding dicts).  Returns ``(bits, flags)`` arrays:
    packed result encodings and per-lane sticky-flag bytes.
    """
    sizes = {lane.shape[0] for lane in var_lanes.values()}
    if len(sizes) > 1:
        raise ValueError(f"ragged variable lanes: {sorted(sizes)}")
    flags = np.zeros(sizes.pop() if sizes else 1, dtype=np.uint8)
    lanes = {name: np.asarray(lane, dtype=np.uint64)
             for name, lane in var_lanes.items()}
    bits = interpret(
        expr, _LaneSemantics(lanes, config, get_backend(backend), flags)
    )
    return bits, flags


def _scalar_sweep(
    kernel,
    config: MachineConfig,
    flags: np.ndarray,
    *operand_lanes: np.ndarray,
) -> np.ndarray:
    """Apply a scalar engine kernel lane by lane, accumulating flags."""
    fmt = config.fmt
    out = np.zeros(flags.shape[0], dtype=np.uint64)
    for i in range(flags.shape[0]):
        env = config.fresh_env()
        args = [SoftFloat(fmt, int(lane[i])) for lane in operand_lanes]
        out[i] = kernel(*args, env).bits
        flags[i] |= np.uint8(env.flags.value)
    return out


def _run_op(
    op: str,
    config: MachineConfig,
    backend: SoftFloatBackend,
    flags: np.ndarray,
    *operand_lanes: np.ndarray,
) -> np.ndarray:
    """One protocol op across all lanes; scalar fallback off-protocol."""
    fmt = config.fmt
    if backend.supports(op, fmt, config.rounding, config.ftz, config.daz):
        result = backend.run_packed(
            op, fmt, list(operand_lanes), config.rounding, config.ftz,
            config.daz,
        )
        flags |= result.flags
        return result.bits
    from repro.softfloat.backend import _SCALAR_KERNELS

    return _scalar_sweep(_SCALAR_KERNELS[op], config, flags, *operand_lanes)


class _LaneSemantics:
    """Packed-bits lanes for :func:`~repro.optsim.ast.interpret`: each
    node computed across all lanes before the next, accumulating
    per-lane sticky flags into ``flags``.  ``lanes`` maps each variable
    to its ``uint64`` lane array, already in the config's format."""

    def __init__(self, lanes: Mapping[str, np.ndarray],
                 config: MachineConfig, backend: SoftFloatBackend,
                 flags: np.ndarray) -> None:
        self.lanes = lanes
        self.config = config
        self.backend = backend
        self.flags = flags
        self.signbit = np.uint64(1 << (config.fmt.width - 1))

    def const(self, node: Const) -> np.ndarray:
        # Compile-time constant conversion: quiet, like the evaluator.
        value = parse_softfloat(node.literal, self.config.fmt)
        return np.full(self.flags.shape[0], value.bits, dtype=np.uint64)

    def var(self, node: Var) -> np.ndarray:
        try:
            return self.lanes[node.name]
        except KeyError:
            raise OptimizationError(f"unbound variable {node.name!r}")

    def unary(self, node: Unary, x: np.ndarray) -> np.ndarray:
        if node.op is UnOp.NEG:
            return x ^ self.signbit
        if node.op is UnOp.ABS:
            return x & ~self.signbit
        return _run_op("sqrt", self.config, self.backend, self.flags, x)

    def binary(self, node: Binary, left: np.ndarray,
               right: np.ndarray) -> np.ndarray:
        op = OP_NAMES[node.op]
        if node.op in _BACKEND_BINOPS:
            return _run_op(op, self.config, self.backend, self.flags, left,
                           right)
        return _scalar_sweep(KERNELS[op], self.config, self.flags, left, right)

    def fma(self, node: FMA, a: np.ndarray, b: np.ndarray,
            c: np.ndarray) -> np.ndarray:
        return _run_op("fma", self.config, self.backend, self.flags, a, b, c)
