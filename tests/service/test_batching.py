"""Batching dispatchers: coalescing, bit-identity, failure isolation."""

from __future__ import annotations

import asyncio

import pytest

from repro.engine import Engine, EngineConfig
from repro.fpenv.rounding import RoundingMode
from repro.service.batching import JobCoalescer, MicroBatcher
from repro.softfloat import BINARY32
from repro.softfloat.backend import get_backend


def run(coro):
    return asyncio.run(coro)


ONE = 0x3F800000
TWO = 0x40000000
ZERO = 0x00000000


class TestMicroBatcher:
    def test_single_request_round_trip(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"), max_delay=0.001)
            key = ("add", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            bits, flags = await batcher.submit(key, [[ONE], [ONE]])
            assert bits == [TWO]
            assert flags == [0]

        run(main())

    def test_concurrent_requests_coalesce_and_split_correctly(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"), max_delay=0.005)
            key = ("div", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            reference = get_backend("scalar")
            import numpy as np

            riders = [
                ([[ONE], [TWO]],),          # 1.0 / 2.0
                ([[ONE, TWO], [ZERO, ONE]],),  # 1/0, 2/1 (two lanes)
                ([[TWO], [TWO]],),          # 2.0 / 2.0
            ]
            results = await asyncio.gather(*[
                batcher.submit(key, operands) for (operands,) in riders
            ])
            # one flush served all riders
            assert batcher.stats.flushes == 1
            assert batcher.stats.lanes == 4
            # each rider's slice is bit-identical to a direct call
            for (operands,), (bits, flags) in zip(riders, results):
                direct = reference.run_packed(
                    "div", BINARY32,
                    [np.asarray(col, dtype=np.uint64)
                     for col in operands],
                    RoundingMode.NEAREST_EVEN, False, False, None,
                )
                assert bits == [int(b) for b in direct.bits]
                assert flags == [int(f) for f in direct.flags]

        run(main())

    def test_different_cells_never_share_a_batch(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"), max_delay=0.005)
            key_rne = ("add", BINARY32, RoundingMode.NEAREST_EVEN,
                       False, False, None)
            key_rtz = ("add", BINARY32, RoundingMode.TOWARD_ZERO,
                       False, False, None)
            await asyncio.gather(
                batcher.submit(key_rne, [[ONE], [ONE]]),
                batcher.submit(key_rtz, [[ONE], [ONE]]),
            )
            assert batcher.stats.flushes == 2

        run(main())

    def test_size_flush_fires_before_deadline(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"),
                                   max_lanes=4, max_delay=60.0)
            key = ("sqrt", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            results = await asyncio.wait_for(
                asyncio.gather(*[
                    batcher.submit(key, [[TWO]]) for _ in range(4)
                ]),
                timeout=5.0,  # must not wait for the 60s deadline
            )
            assert all(bits == results[0][0] for bits, _ in results)
            assert batcher.stats.size_flushes >= 1

        run(main())

    def test_backend_failure_fans_out_to_all_riders(self):
        class ExplodingBackend:
            def run_packed(self, *args, **kwargs):
                raise RuntimeError("kernel on fire")

        async def main():
            batcher = MicroBatcher(ExplodingBackend(), max_delay=0.002)
            key = ("add", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            results = await asyncio.gather(
                batcher.submit(key, [[ONE], [ONE]]),
                batcher.submit(key, [[TWO], [TWO]]),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)

        run(main())

    def test_backend_failure_fails_only_the_culprit(self):
        """A coalesced call that raises is rerun rider by rider: the
        rider carrying the poisoned lane gets the error, and its
        co-riders get exactly the scalar reference's bits and flags."""
        import numpy as np

        poison = 0x7F800001  # a signaling NaN no valid rider sends
        scalar = get_backend("scalar")

        class PoisonedBackend:
            def run_packed(self, op, fmt, operands, *args, **kwargs):
                if poison in operands[0].tolist():
                    raise ValueError("poisoned lane")
                return scalar.run_packed(op, fmt, operands, *args, **kwargs)

        key = ("mul", BINARY32, RoundingMode.TOWARD_ZERO, True, True, None)
        valid = [
            [[ONE, 0x3EAAAAAB, 0x00000001], [TWO, 0x3EAAAAAB, 0x7F7FFFFF]],
            [[TWO], [0x00800000]],
        ]

        async def main():
            batcher = MicroBatcher(PoisonedBackend(), max_delay=0.005)
            return batcher, await asyncio.gather(
                batcher.submit(key, valid[0]),
                batcher.submit(key, [[ONE, poison], [ONE, ONE]]),
                batcher.submit(key, valid[1]),
                return_exceptions=True,
            )

        batcher, results = run(main())
        assert batcher.stats.flushes == 1
        assert isinstance(results[1], ValueError)
        for operands, got in zip(valid, (results[0], results[2])):
            direct = scalar.run_packed(
                "mul", BINARY32,
                [np.asarray(col, dtype=np.uint64) for col in operands],
                RoundingMode.TOWARD_ZERO, True, True, None,
            )
            assert got == ([int(b) for b in direct.bits],
                           [int(f) for f in direct.flags])

    def test_drain_flushes_forming_batch(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"), max_delay=60.0)
            key = ("add", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            future = asyncio.ensure_future(
                batcher.submit(key, [[ONE], [ONE]])
            )
            await asyncio.sleep(0)  # let it enqueue
            await batcher.drain()
            bits, _ = await asyncio.wait_for(future, timeout=1.0)
            assert bits == [TWO]

        run(main())


class TestJobCoalescer:
    def test_riders_coalesce_into_one_job(self):
        async def main():
            engine = Engine(EngineConfig(workers=0, cache_enabled=False))
            coalescer = JobCoalescer(engine, max_delay=0.01)
            params = [{"payload": i} for i in range(3)]
            results = await asyncio.gather(*[
                coalescer.submit("engine.test.echo", p) for p in params
            ])
            assert coalescer.stats.flushes == 1
            assert engine.last_report.shards == 3
            assert [r["payload"] for r in results] == [0, 1, 2]

        run(main())

    def test_seed_is_spec_addressed_not_positional(self):
        """The same params get the same shard seed no matter what else
        rides the batch — the cache-stability property."""
        from repro.engine.tasks import TaskSpec, derive_seed

        seen: list[tuple] = []

        class SpyEngine:
            last_report = None

            def run(self, job):
                seen.append(tuple(s.seed for s in job.shards))
                return [None] * len(job.shards)

        async def one_round(extra_riders: int):
            coalescer = JobCoalescer(SpyEngine(), max_delay=0.005,
                                     seed=99)
            probe = {"payload": "probe"}
            riders = [probe] + [
                {"payload": f"noise-{i}"}
                for i in range(extra_riders)
            ]
            await asyncio.gather(*[
                coalescer.submit("engine.test.echo", p) for p in riders
            ])

        asyncio.run(one_round(0))
        asyncio.run(one_round(4))
        probe_spec = TaskSpec(
            task="engine.test.echo",
            params={"payload": "probe"},
        )
        expected = derive_seed(99, "engine.test.echo",
                               probe_spec.canonical())
        assert seen[0][0] == expected
        assert seen[1][0] == expected  # same seed with 4 extra riders

    def test_engine_failure_fans_out(self):
        class BrokenEngine:
            def run(self, job):
                raise RuntimeError("pool collapsed")

        async def main():
            coalescer = JobCoalescer(BrokenEngine(), max_delay=0.002)
            results = await asyncio.gather(
                coalescer.submit("engine.test.echo", {"payload": 1}),
                coalescer.submit("engine.test.echo", {"payload": 2}),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)

        run(main())

    def test_engine_failure_fails_only_the_culprit(self):
        class PickyEngine:
            def run(self, job):
                payloads = [s.spec.params["payload"] for s in job.shards]
                if "poison" in payloads:
                    raise RuntimeError("shard on fire")
                return payloads

        async def main():
            coalescer = JobCoalescer(PickyEngine(), max_delay=0.005)
            return await asyncio.gather(
                coalescer.submit("engine.test.echo", {"payload": 1}),
                coalescer.submit("engine.test.echo", {"payload": "poison"}),
                coalescer.submit("engine.test.echo", {"payload": 3}),
                return_exceptions=True,
            )

        results = run(main())
        assert results[0] == 1 and results[2] == 3
        assert isinstance(results[1], RuntimeError)

    def test_size_cap_flushes_early(self):
        async def main():
            engine = Engine(EngineConfig(workers=0, cache_enabled=False))
            coalescer = JobCoalescer(engine, max_jobs=2, max_delay=60.0)
            results = await asyncio.wait_for(
                asyncio.gather(*[
                    coalescer.submit("engine.test.echo", {"payload": i})
                    for i in range(2)
                ]),
                timeout=5.0,
            )
            assert len(results) == 2
            assert coalescer.stats.size_flushes == 1

        run(main())
