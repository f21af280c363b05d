"""DAG traversal: ``walk_unique`` / ``unique_size`` vs the occurrence
walk, and DAG evaluation through every evaluator entry point.

Rewrite passes reuse subtree objects, so optimized expressions are
DAGs; the occurrence walk revisits shared subtrees once per parent
(exponentially in the worst case), while ``walk_unique`` and the
interpreter are linear in distinct nodes.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.optsim.ast import (
    Binary,
    BinOp,
    Var,
    expr_size,
    expr_variables,
    unique_size,
    walk,
    walk_unique,
)


def _shared_chain(depth: int):
    """x_{n} = x_{n-1} + x_{n-1} with shared children: 2n+1 unique
    nodes but 2^(n+1)-1 occurrences."""
    node = Var("x")
    for _ in range(depth):
        node = Binary(BinOp.ADD, node, node)
    return node


class TestWalkUnique:
    def test_tree_visits_match_walk(self):
        expr = Binary(BinOp.ADD, Var("a"), Binary(BinOp.MUL, Var("b"), Var("c")))
        assert [str(n) for n in walk_unique(expr)] == [
            str(n) for n in walk(expr)
        ]

    def test_preorder(self):
        expr = Binary(BinOp.ADD, Var("a"), Var("b"))
        nodes = list(walk_unique(expr))
        assert nodes[0] is expr
        assert nodes[1] is expr.left
        assert nodes[2] is expr.right

    def test_shared_subtree_visited_once(self):
        shared = Binary(BinOp.ADD, Var("a"), Var("b"))
        expr = Binary(BinOp.MUL, shared, shared)
        nodes = list(walk_unique(expr))
        assert sum(1 for n in nodes if n is shared) == 1
        assert len(nodes) == 4  # mul, add, a, b

    def test_equal_but_distinct_objects_both_visited(self):
        # Structural equality must NOT merge distinct source nodes:
        # two textual occurrences of ``a + b`` are separate program
        # points and each deserves its own diagnostic.
        left = Binary(BinOp.ADD, Var("a"), Var("b"))
        right = Binary(BinOp.ADD, Var("a"), Var("b"))
        assert left == right
        expr = Binary(BinOp.MUL, left, right)
        nodes = list(walk_unique(expr))
        assert sum(1 for n in nodes if n is left) == 1
        assert sum(1 for n in nodes if n is right) == 1

    def test_exponential_dag_stays_linear(self):
        expr = _shared_chain(40)
        assert unique_size(expr) == 41
        # The occurrence count would be 2**41 - 1: never materialize it.

    def test_small_dag_sizes(self):
        expr = _shared_chain(3)
        assert unique_size(expr) == 4
        assert expr_size(expr) == 15

    def test_expr_variables_on_dag(self):
        expr = _shared_chain(30)
        assert expr_variables(expr) == ("x",)


#: Each entry point evaluates ``_shared_chain(40)`` at ``x = 1.0`` and
#: prints the root value; 2**40 occurrences would never finish.
_DAG_PROGRAMS = {
    "evaluate": """
        from repro.optsim import evaluate
        from repro.softfloat import sf
        print(evaluate(expr, {"x": sf(1.0)}).value.to_float())
    """,
    "evaluate_lanes": """
        import numpy as np
        from repro.optsim.batch_eval import evaluate_lanes
        from repro.softfloat import SoftFloat, BINARY64, sf
        lanes = {"x": np.array([sf(1.0).bits], dtype=np.uint64)}
        bits, _ = evaluate_lanes(expr, lanes)
        print(SoftFloat(BINARY64, int(bits[0])).to_float())
    """,
    "oracle_evaluate": """
        from repro.oracle import oracle_evaluate
        from repro.softfloat import sf
        print(oracle_evaluate(expr, {"x": sf(1.0)}).value.to_float())
    """,
    "interval_evaluate": """
        from repro.interval import interval_evaluate
        box = interval_evaluate(expr, {"x": 1.0})
        assert box.lo.same_bits(box.hi)
        print(box.hi.to_float())
    """,
    "shadow_evaluate": """
        from repro.shadow import shadow_evaluate
        result = shadow_evaluate(expr, {"x": 1.0})
        assert result.reference_exact == 2**40
        print(result.working.to_float())
    """,
    "localize_errors": """
        from repro.shadow import localize_errors
        reports = localize_errors(expr, {"x": 1.0})
        assert len(reports) == 40
        print(max(r.working.to_float() for r in reports))
    """,
}


class TestDagEvaluation:
    """Shared subtrees are evaluated once, so every entry point runs a
    40-deep doubling chain (41 distinct nodes, 2**41 - 1 occurrences)
    in linear time.  Each run is a subprocess with a hard timeout, so an
    exponential evaluator fails instead of hanging the suite."""

    @pytest.mark.parametrize("entry", sorted(_DAG_PROGRAMS))
    def test_shared_chain_evaluates_linearly(self, entry):
        script = "import pickle, sys\nexpr = pickle.load(sys.stdin.buffer)\n"
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c",
             script + textwrap.dedent(_DAG_PROGRAMS[entry])],
            input=pickle.dumps(_shared_chain(40)),  # pickle keeps sharing
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr.decode()
        assert float(result.stdout) == 2.0**40
