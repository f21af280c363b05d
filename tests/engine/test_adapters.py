"""The bit-identity contract: sharded twins == serial code paths.

These are the acceptance tests for the engine as a whole: for each
adapter, the merged parallel result must be byte-identical to the
serial implementation's output — same canonical JSON, same rendered
text — at any worker count, and again when served from cache.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.engine.adapters import (
    find_divergence_sharded,
    run_conformance_sharded,
    run_corpus_sharded,
    run_study_sharded,
    witness_sweep_sharded,
)
from repro.oracle.runner import run_conformance
from repro.softfloat.formats import FORMATS_BY_NAME


def _engine(workers: int, **overrides) -> Engine:
    defaults = dict(workers=workers, shard_timeout=120.0,
                    cache_enabled=False)
    defaults.update(overrides)
    return Engine(EngineConfig(**defaults))


@pytest.fixture(scope="module")
def serial_binary16_report():
    fmt = FORMATS_BY_NAME["binary16"]
    return run_conformance(fmt, ["add", "mul"], budget=1200, seed=754)


class TestOracleAdapter:
    def test_serial_engine_is_bit_identical(self, serial_binary16_report):
        fmt = FORMATS_BY_NAME["binary16"]
        sharded = run_conformance_sharded(
            fmt, ["add", "mul"], _engine(0), budget=1200, seed=754,
            slices_per_op=3,
        )
        assert (sharded.canonical_json()
                == serial_binary16_report.canonical_json())

    def test_two_workers_bit_identical(self, serial_binary16_report):
        fmt = FORMATS_BY_NAME["binary16"]
        sharded = run_conformance_sharded(
            fmt, ["add", "mul"], _engine(2), budget=1200, seed=754,
        )
        assert (sharded.canonical_json()
                == serial_binary16_report.canonical_json())

    def test_exhaustive_format_bit_identical(self):
        """tiny8's exhaustive path shards identically too."""
        fmt = FORMATS_BY_NAME["tiny8"]
        serial = run_conformance(fmt, ["add"], budget=60000, seed=7)
        sharded = run_conformance_sharded(
            fmt, ["add"], _engine(0), budget=60000, seed=7,
            slices_per_op=4,
        )
        assert sharded.canonical_json() == serial.canonical_json()

    def test_cached_rerun_bit_identical(self, serial_binary16_report):
        fmt = FORMATS_BY_NAME["binary16"]
        eng = Engine(EngineConfig(workers=0, cache_enabled=True))
        kwargs = dict(budget=1200, seed=754, slices_per_op=3)
        run_conformance_sharded(fmt, ["add", "mul"], eng, **kwargs)
        cached = run_conformance_sharded(fmt, ["add", "mul"], eng, **kwargs)
        assert eng.last_report.from_cache == eng.last_report.shards
        assert (cached.canonical_json()
                == serial_binary16_report.canonical_json())

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown ops"):
            run_conformance_sharded(
                FORMATS_BY_NAME["binary16"], ["nope"], _engine(0),
            )


class TestStudyAdapter:
    def test_sharded_study_matches_serial(self, study):
        sharded = run_study_sharded(
            _engine(0), seed=754, n_developers=199, n_students=52,
            shard_size=40,
        )
        assert sharded.to_json() == study.to_json()
        assert sharded.render() == study.render()

    def test_worker_count_does_not_change_records(self):
        one = run_study_sharded(_engine(0), seed=11, n_developers=30,
                                n_students=10, shard_size=7)
        two = run_study_sharded(_engine(2), seed=11, n_developers=30,
                                n_students=10, shard_size=7)
        assert one.to_json() == two.to_json()


class TestOptsimAdapter:
    def test_divergence_found_matches_serial(self):
        from repro.optsim import find_divergence, optimization_level, \
            parse_expr

        serial = find_divergence(
            parse_expr("a*b + c"), optimization_level("-O3"),
            seed=754, trials=160,
        )
        sharded = find_divergence_sharded(
            "a*b + c", "-O3", _engine(2), seed=754, trials=160,
        )
        assert sharded.describe() == serial.describe()
        assert sharded.trials == serial.trials
        assert sharded.witness == serial.witness

    def test_no_divergence_matches_serial(self):
        from repro.optsim import find_divergence, optimization_level, \
            parse_expr

        serial = find_divergence(
            parse_expr("a + b"), optimization_level("-O2"),
            seed=754, trials=100,
        )
        sharded = find_divergence_sharded(
            "a + b", "-O2", _engine(0), seed=754, trials=100,
        )
        assert not sharded.diverged
        assert sharded.describe() == serial.describe()
        assert sharded.trials == serial.trials


class TestWitnessSweepAdapter:
    def test_sharded_sweep_matches_serial_witness(self):
        from repro.optsim import exhaustive_sweep, optimize, \
            optimization_level, parse_expr
        from repro.softfloat.formats import FORMATS_BY_NAME as FORMATS

        config = optimization_level("-O3").replace(fmt=FORMATS["tiny8"])
        expr = parse_expr("a*b + c")
        serial = exhaustive_sweep(expr, optimize(expr, config), config)
        sharded = witness_sweep_sharded(
            "a*b + c", "-O3", _engine(2), fmt="tiny8", n_slices=5,
        )
        assert sharded.found_index == serial.found_index
        assert sharded.states == serial.states
        assert sharded.value_diverged == serial.value_diverged
        assert sharded.flags_diverged == serial.flags_diverged
        assert {k: v.bits for k, v in sharded.witness.items()} == \
            {k: v.bits for k, v in serial.witness.items()}

    def test_sharded_proof_matches_serial(self):
        sharded = witness_sweep_sharded(
            "(a - b) / 2.0", "strict", _engine(0), fmt="tiny8",
            bindings={"a": ("4", "8"), "b": ("1", "2")}, n_slices=3,
        )
        assert sharded.found_index is None
        assert sharded.is_proof
        assert sharded.checked == sharded.states


class TestCorpusAdapter:
    def test_outcomes_match_serial(self):
        from repro.staticfp.corpus import corpus_outcomes

        assert run_corpus_sharded(_engine(0)) == corpus_outcomes()

    def test_summary_and_golden_accept_sharded_outcomes(self):
        from repro.staticfp.corpus import check_golden, precision_summary

        outcomes = run_corpus_sharded(_engine(0), shard_size=3)
        summary = precision_summary(outcomes)
        assert summary["gotchas_detected"] == summary["gotchas_total"]
        assert not summary["false_positives"]
        assert check_golden(outcomes=outcomes) == []
