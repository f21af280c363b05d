"""The IR interpreter's contract: memoized left-to-right post-order,
each distinct node object evaluated once, per-node values on request."""

import pytest

from repro.errors import OptimizationError
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


class _Recorder:
    """A semantics that evaluates every node to its string and records
    the call order."""

    def __init__(self):
        self.calls = []

    def _note(self, node):
        self.calls.append(node)
        return str(node)

    def const(self, node):
        return self._note(node)

    def var(self, node):
        return self._note(node)

    def unary(self, node, x):
        assert x == str(node.operand)
        return self._note(node)

    def binary(self, node, left, right):
        assert (left, right) == (str(node.left), str(node.right))
        return self._note(node)

    def fma(self, node, a, b, c):
        assert (a, b, c) == tuple(str(child) for child in node.children())
        return self._note(node)


class TestInterpret:
    def test_tree_order_is_left_to_right_post_order(self):
        a, b, c = Var("a"), Const("2.0"), Var("c")
        product = Binary(BinOp.MUL, a, b)
        fused = FMA(product, Unary(UnOp.NEG, c), Var("a"))
        recorder = _Recorder()
        assert interpret(fused, recorder) == str(fused)
        assert recorder.calls == [
            a, b, product, c, fused.b, fused.c, fused,
        ]

    def test_shared_node_evaluated_once_at_first_occurrence(self):
        shared = Binary(BinOp.ADD, Var("a"), Var("b"))
        left = Unary(UnOp.SQRT, shared)
        expr = Binary(BinOp.MUL, left, shared)
        recorder = _Recorder()
        values = {}
        interpret(expr, recorder, values)
        assert recorder.calls == [
            shared.left, shared.right, shared, left, expr,
        ]
        assert values == {id(n): str(n) for n in recorder.calls}

    def test_unknown_node_rejected(self):
        with pytest.raises(OptimizationError, match="cannot evaluate"):
            interpret(Expr(), _Recorder())
