"""Expression IR for the optimization simulator.

Nodes are immutable and format-agnostic: constants carry their source
literal text and are converted (with correct rounding) to the machine's
format at evaluation time, so the same expression can be run on
binary64, binary32, or a 6-bit toy format.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Iterator

from repro.errors import OptimizationError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "FMA",
    "BinOp",
    "UnOp",
    "OP_NAMES",
    "expr_variables",
    "expr_size",
    "interpret",
    "unique_size",
    "walk",
    "walk_unique",
]


class BinOp(enum.Enum):
    """Binary arithmetic operators."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    REM = "%"
    MIN = "min"
    MAX = "max"


class UnOp(enum.Enum):
    """Unary operators."""

    NEG = "-"
    ABS = "abs"
    SQRT = "sqrt"


#: Each operator's op name, the one the softfloat backends, the oracle
#: and the static analyzer's transfer functions use (``"add"``, …).
OP_NAMES = {op: op.name.lower() for op in (*BinOp, *UnOp)}


@dataclasses.dataclass(frozen=True)
class Expr:
    """Base class for expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        """Immediate sub-expressions."""
        return ()

    def with_children(self, *children: "Expr") -> "Expr":
        """Rebuild this node with replacement children."""
        if children:
            raise OptimizationError(f"{type(self).__name__} takes no children")
        return self

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class Const(Expr):
    """A literal constant, kept as its exact source text.

    >>> str(Const("0.1"))
    '0.1'
    """

    literal: str

    def __str__(self) -> str:
        return self.literal


@dataclasses.dataclass(frozen=True)
class Var(Expr):
    """A free variable, bound at evaluation time."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True)
class Unary(Expr):
    """A unary operation."""

    op: UnOp
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, *children: Expr) -> "Unary":
        (operand,) = children
        return Unary(self.op, operand)

    def __str__(self) -> str:
        if self.op is UnOp.NEG:
            return f"(-{self.operand})"
        return f"{self.op.value}({self.operand})"


@dataclasses.dataclass(frozen=True)
class Binary(Expr):
    """A binary operation."""

    op: BinOp
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, *children: Expr) -> "Binary":
        left, right = children
        return Binary(self.op, left, right)

    def __str__(self) -> str:
        if self.op in (BinOp.MIN, BinOp.MAX):
            return f"{self.op.value}({self.left}, {self.right})"
        return f"({self.left} {self.op.value} {self.right})"


@dataclasses.dataclass(frozen=True)
class FMA(Expr):
    """Fused multiply-add node: ``a*b + c`` with a single rounding.

    Produced by the contraction pass (or written directly as
    ``fma(a, b, c)`` in the expression language).
    """

    a: Expr
    b: Expr
    c: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b, self.c)

    def with_children(self, *children: Expr) -> "FMA":
        a, b, c = children
        return FMA(a, b, c)

    def __str__(self) -> str:
        return f"fma({self.a}, {self.b}, {self.c})"


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of every node in the tree.

    A node object shared between several parents (a DAG built by the
    rewrite passes, which reuse subtree objects) is yielded once per
    *occurrence*; use :func:`walk_unique` to visit each distinct node
    object exactly once.
    """
    yield expr
    for child in expr.children():
        yield from walk(child)


def walk_unique(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal visiting each node *object* exactly once.

    Rewrite passes reuse subtree objects, so an optimized expression is
    really a DAG; the plain :func:`walk` revisits shared subtrees once
    per parent (exponentially, in the worst case).  Memoizing on object
    identity — not structural equality, so two equal-but-distinct
    source occurrences are still both visited — makes traversal linear
    in the number of distinct nodes and lets the static analyzer emit
    one diagnostic per node.
    """
    seen: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(reversed(node.children()))


#: ``id(expr) -> (expr, plan)``, holding the expr so its id stays
#: unique.  Identity, not structural hashing: that is exponential on a
#: DAG and would merge equal-but-distinct nodes.  Never stored on the
#: ``Expr`` itself, which is pickled and reaches canonical task specs.
_PLANS: dict[int, tuple[Expr, tuple]] = {}
_PLANS_MAX = 256


def _plan(expr: Expr) -> tuple[tuple[Expr, type, tuple[int, ...]], ...]:
    """``(node, type, child positions)`` per distinct node object, in
    memoized post-order: children left to right, each node at its first
    occurrence.  Cached in :data:`_PLANS`."""
    position: dict[int, int] = {}
    steps = []
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            kids = tuple(position[id(c)] for c in node.children())
            position[id(node)] = len(steps)
            steps.append((node, type(node), kids))
        elif id(node) not in position:
            position[id(node)] = -1  # expanded, not yet placed
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children()))
    plan = tuple(steps)
    if len(_PLANS) >= _PLANS_MAX:
        _PLANS.clear()
    _PLANS[id(expr)] = (expr, plan)
    return plan


def interpret(
    expr: Expr, semantics, values: dict[int, object] | None = None
) -> object:
    """Evaluate ``expr`` under ``semantics``; return the root's value.

    ``semantics`` supplies ``const(node)``, ``var(node)``,
    ``unary(node, x)``, ``binary(node, left, right)`` and
    ``fma(node, a, b, c)``, each given its children's values.  Each
    distinct node object is evaluated once, so a DAG costs its distinct
    nodes, not its occurrences.  ``values``, if given, receives every
    node's value keyed by ``id(node)``.
    """
    entry = _PLANS.get(id(expr))
    plan = entry[1] if entry is not None else _plan(expr)
    out: list[object] = []
    push = out.append
    for node, kind, kids in plan:
        if kind is Binary:
            push(semantics.binary(node, out[kids[0]], out[kids[1]]))
        elif kind is Var:
            push(semantics.var(node))
        elif kind is Const:
            push(semantics.const(node))
        elif kind is Unary:
            push(semantics.unary(node, out[kids[0]]))
        elif kind is FMA:
            push(semantics.fma(node, out[kids[0]], out[kids[1]],
                               out[kids[2]]))
        else:
            raise OptimizationError(f"cannot evaluate node {kind.__name__}")
    if values is not None:
        values.update(zip((id(step[0]) for step in plan), out))
    return out[-1]


def expr_variables(expr: Expr) -> tuple[str, ...]:
    """Free variable names in first-occurrence order."""
    seen: dict[str, None] = {}
    for node in walk_unique(expr):
        if isinstance(node, Var):
            seen.setdefault(node.name, None)
    return tuple(seen)


def expr_size(expr: Expr) -> int:
    """Total occurrence count (a proxy for naive evaluation cost)."""
    return sum(1 for _ in walk(expr))


def unique_size(expr: Expr) -> int:
    """Distinct node-object count (DAG size; a proxy for analyzed or
    memoized-evaluation cost)."""
    return sum(1 for _ in walk_unique(expr))
