"""Cross-semantics agreement: every concrete evaluator of the IR answers
the same question the same way.

The scalar evaluator, the lane evaluator on each backend, and the
per-node flag-capturing evaluator the guided search uses must be bit-
and flag-identical on any expression, format, and environment.  The
exact oracle must agree too, with all NaNs treated as one value (NaN
payloads carry no compliance meaning, as in ``cross_validate``).
"""

import random

import pytest

from repro.fpenv.flags import FPFlag
from repro.optsim import STRICT, evaluate
from repro.optsim.ast import FMA, Binary, BinOp, Const, Unary, UnOp, Var
from repro.optsim.batch_eval import evaluate_many
from repro.optsim.compliance import corner_values
from repro.optsim.guided import _eval_capture
from repro.oracle.optcheck import oracle_evaluate
from repro.softfloat import BINARY16, BINARY32, BINARY64, SoftFloat
from tests.strategies import ENV_MATRIX, forall_seeds

NAMES = ("a", "b", "c")
LITERALS = ("0.0", "1.0", "0.1", "3.0", "-2.5", "1e-5")
BINDINGS_PER_CELL = 4


def _random_expr(rng: random.Random):
    """A random tree using every ``BinOp``, every ``UnOp`` and ``FMA``
    at least once, over the variables in :data:`NAMES` and a few
    literals."""

    def leaf():
        if rng.random() < 0.75:
            return Var(rng.choice(NAMES))
        return Const(rng.choice(LITERALS))

    ops = [*BinOp, *UnOp, "fma"]
    rng.shuffle(ops)
    pool = [leaf() for _ in range(3)]

    def take():
        return pool.pop(rng.randrange(len(pool))) if pool else leaf()

    for op in ops:
        if isinstance(op, BinOp):
            node = Binary(op, take(), take())
        elif isinstance(op, UnOp):
            node = Unary(op, take())
        else:
            node = FMA(take(), take(), take())
        pool.append(node)
        if rng.random() < 0.5:
            pool.append(leaf())
    expr = pool.pop()
    while pool:
        expr = Binary(rng.choice(list(BinOp)), expr, pool.pop())
    return expr


def _random_bindings(rng: random.Random, fmt):
    """Corner values and random encodings of ``fmt``, plus some operands
    in another format so variable loads round too."""
    corners = corner_values(fmt)

    def operand():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(corners)
        if roll < 0.9:
            return SoftFloat(fmt, rng.getrandbits(fmt.width))
        return SoftFloat(BINARY32, rng.getrandbits(BINARY32.width))

    return [
        {name: operand() for name in NAMES} for _ in range(BINDINGS_PER_CELL)
    ]


def _same_value(a: SoftFloat, b: SoftFloat) -> bool:
    return (a.is_nan and b.is_nan) or a.same_bits(b)


@pytest.mark.parametrize("fmt", [BINARY64, BINARY16], ids=lambda f: f.name)
@forall_seeds(n_examples=15)
def test_every_semantics_agrees(fmt, seed):
    rng = random.Random(seed)
    expr = _random_expr(rng)
    for mode, ftz, daz in ENV_MATRIX:
        config = STRICT.replace(
            name="cell", fmt=fmt, rounding=mode, ftz=ftz, daz=daz
        )
        bindings_list = _random_bindings(rng, fmt)
        scalar = [evaluate(expr, b, config) for b in bindings_list]
        where = f"{expr} under {mode.name} ftz={ftz} daz={daz}"

        for backend in ("scalar", "batch", "auto"):
            lanes = evaluate_many(expr, bindings_list, config, backend)
            for want, got in zip(scalar, lanes):
                assert got.value.same_bits(want.value), (backend, where)
                assert got.flags == want.flags, (backend, where)

        for bindings, want in zip(bindings_list, scalar):
            emitted = []
            value, total = _eval_capture(
                expr, bindings, config,
                lambda node, flags: emitted.append(flags),
            )
            assert value.same_bits(want.value), ("capture", where)
            assert total == want.flags, ("capture", where)
            union = FPFlag.NONE
            for flags in emitted:
                union |= flags
            assert union == total, ("capture emit", where)

            exact = oracle_evaluate(expr, bindings, config)
            assert _same_value(exact.value, want.value), ("oracle", where)
            assert exact.flags == want.flags, ("oracle", where)
