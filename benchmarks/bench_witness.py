"""Witness engine benchmark: guided vs random search, exhaustive proofs.

Two acceptance claims are measured:

1. **Guided speedup** — for every statically-unsafe corpus entry, the
   analysis-guided search finds a check_binding-verified witness in a
   median >= 5x fewer candidate evaluations than admission-filtered
   random search (random runs are capped at ``RANDOM_CAP`` candidates;
   a capped run is scored at the cap, so the reported speedup is a
   *lower bound*).
2. **Exhaustive proofs** — every statically-safe corpus entry is swept
   witness-free over the full TINY8 encoding space (the proof side of
   the witness obligation), and the unsafe-but-equivalent entries are
   refuted the same way.

``python benchmarks/bench_witness.py`` writes the measurements to
``BENCH_witness.json`` for the CI artifact trail; the ``test_*``
functions run the same probes under pytest-benchmark.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.optsim.parser import parse_expr
from repro.staticfp.corpus import (
    CLEAN_CORPUS,
    GOTCHA_CORPUS,
    entry_witness_outcome,
    witness_summary,
)
from repro.staticfp.safety import predict_pass_safety
from repro.staticfp.witness import find_witness

RANDOM_CAP = 4000
SEED = 754


def _unsafe_entries():
    for entry in GOTCHA_CORPUS + CLEAN_CORPUS:
        config = entry.config()
        expr = parse_expr(entry.expr)
        safety = predict_pass_safety(
            expr, config, entry.binding_map() or None
        )
        if not safety.flags_safe:
            yield entry, expr, config, safety


def measure() -> dict:
    t0 = time.perf_counter()
    outcomes = {
        e.key: entry_witness_outcome(e)
        for e in GOTCHA_CORPUS + CLEAN_CORPUS
    }
    sweep_seconds = time.perf_counter() - t0

    per_entry = []
    ratios = []
    for entry, expr, config, safety in _unsafe_entries():
        if outcomes[entry.key]["outcome"] == "refuted":
            # Statically unsafe but exhaustively shown equivalent:
            # there is no witness for either strategy to find.
            continue
        bindings = entry.binding_map() or None
        t0 = time.perf_counter()
        guided = find_witness(
            expr, config, bindings, strategy="guided", seed=SEED,
            trials=RANDOM_CAP, safety=safety, expect_safe=False,
        )
        guided_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        random_report = find_witness(
            expr, config, bindings, strategy="random", seed=SEED,
            trials=RANDOM_CAP, safety=safety, expect_safe=False,
        )
        random_seconds = time.perf_counter() - t0
        random_cost = (
            random_report.evals if random_report.witnessed else RANDOM_CAP
        )
        record = {
            "key": entry.key,
            "guided_outcome": guided.outcome,
            "guided_evals": guided.evals,
            "guided_seconds": round(guided_seconds, 4),
            "random_outcome": random_report.outcome,
            "random_evals": random_cost,
            "random_capped": not random_report.witnessed,
            "random_seconds": round(random_seconds, 4),
        }
        per_entry.append(record)
        if guided.witnessed:
            ratios.append(random_cost / guided.evals)

    proofs = []
    for key, outcome in sorted(outcomes.items()):
        if outcome["outcome"] in ("proved-safe", "refuted"):
            proofs.append({
                "key": key,
                "outcome": outcome["outcome"],
                "states": outcome["states"],
            })
    summary = witness_summary(outcomes)
    return {
        "seed": SEED,
        "random_cap": RANDOM_CAP,
        "guided_vs_random": per_entry,
        "median_speedup": round(statistics.median(ratios), 2)
        if ratios else None,
        "exhaustive_proofs": proofs,
        "proof_states_total": sum(p["states"] for p in proofs),
        "corpus_sweep_seconds": round(sweep_seconds, 4),
        "resolution": {
            "total": summary["total"],
            "resolved": summary["resolved"],
            "witnessed": len(summary["witnessed"]),
            "refuted": len(summary["refuted"]),
            "proved_safe": len(summary["proved-safe"]),
            "unresolved": summary["unresolved"],
        },
    }


def check(numbers: dict) -> list[str]:
    """The acceptance assertions; returns failure messages."""
    failures = []
    for record in numbers["guided_vs_random"]:
        if record["guided_outcome"] != "witnessed":
            failures.append(
                f"{record['key']}: guided search did not find a witness"
                f" ({record['guided_outcome']})"
            )
    if numbers["median_speedup"] is None:
        failures.append("no guided witnesses to compare against random")
    elif numbers["median_speedup"] < 5.0:
        failures.append(
            f"guided median speedup {numbers['median_speedup']}x < 5x"
        )
    resolution = numbers["resolution"]
    if resolution["resolved"] != resolution["total"]:
        failures.append(
            f"witness resolution {resolution['resolved']}"
            f"/{resolution['total']}: unresolved"
            f" {resolution['unresolved']}"
        )
    return failures


# -- pytest-benchmark probes -------------------------------------------


def test_witness_bench_acceptance():
    numbers = measure()
    print()
    print(json.dumps(numbers, indent=2))
    assert check(numbers) == []


def test_guided_fast_math_witness(benchmark):
    """The flagship case: guided search lands in the cancellation band
    on its first candidates; random search never gets there."""
    expr = parse_expr("((t + y) - t) - y")
    from repro.optsim.machine import optimization_level

    config = optimization_level("--ffast-math")
    bindings = {"t": ("1e8", "1e9"), "y": ("1e-8", "1e-7")}

    report = benchmark(
        find_witness, expr, config, bindings, strategy="guided", seed=SEED,
    )
    assert report.witnessed
    assert report.evals <= 16


def test_exhaustive_tiny8_proof(benchmark):
    """A full-domain TINY8 sweep (no bindings: every encoding,
    including NaNs) stays inside the benchmark budget."""
    from repro.softfloat.formats import FORMATS_BY_NAME
    from repro.optsim.machine import STRICT

    expr = parse_expr("min(a, b)")
    config = STRICT.replace(fmt=FORMATS_BY_NAME["tiny8"])

    report = benchmark(
        find_witness, expr, config, strategy="exhaustive",
        expect_safe=True,
    )
    assert report.outcome == "proved-safe"
    assert report.states == 64 * 64


def main() -> int:
    numbers = measure()
    with open("BENCH_witness.json", "w") as handle:
        json.dump(numbers, handle, indent=2)
        handle.write("\n")
    print(json.dumps(numbers, indent=2))
    failures = check(numbers)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("bench_witness: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
