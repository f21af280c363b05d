"""End-to-end service tests over the real TCP wire path.

Each test boots an :class:`FPService` on a free port, talks to it
through :class:`ServiceClient`, and asserts on both the responses and
the service's own accounting.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.engine import Engine, EngineConfig
from repro.errors import ServiceError
from repro.service import (
    FPService,
    ServiceClient,
    ServiceConfig,
    encode,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


def make_service(engine=None, **overrides) -> FPService:
    config = ServiceConfig(**overrides)
    return FPService(config, engine=engine)


class TestBasics:
    def test_ping_carries_telemetry(self):
        async def main():
            async with make_service() as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    response = await client.call("ping", {"echo": 42})
                    assert response.ok
                    assert response.result == {"pong": True, "echo": 42}
                    assert response.telemetry is not None
                    assert response.telemetry["queue_ms"] >= 0.0
                    assert response.telemetry["handle_ms"] >= 0.0
                    assert response.telemetry["fp_events"] == []

        run(main())

    def test_unknown_method_is_404_and_connection_survives(self):
        async def main():
            async with make_service() as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    bad = await client.call("no.such.method")
                    assert not bad.ok
                    assert bad.error_code == 404
                    good = await client.call("ping")
                    assert good.ok

        run(main())

    def test_malformed_json_is_400_and_connection_survives(self):
        async def main():
            async with make_service() as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await reader.readline()
                payload = json.loads(line)
                assert payload["ok"] is False
                assert payload["error"]["code"] == 400
                # still serviceable
                writer.write(encode({"id": 1, "method": "ping"}))
                await writer.drain()
                payload = json.loads(await reader.readline())
                assert payload["ok"] is True
                writer.close()
                await writer.wait_closed()

        run(main())

    def test_handler_param_errors_are_400(self):
        async def main():
            async with make_service() as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    for method, params in [
                        ("lint", {}),  # missing expr
                        ("op.eval", {"op": "frobnicate", "format":
                                     "binary32", "operands": [[1], [1]]}),
                        ("op.eval", {"op": "add", "format": "binary32",
                                     "operands": [[1]]}),  # arity
                        ("quiz.answer", {"session": "s9", "answer": "x"}),
                    ]:
                        response = await client.call(method, params)
                        assert not response.ok
                        assert response.error_code in (400, 404), method

        run(main())


class TestQuizOverTheWire:
    def test_full_session_bit_identical_to_direct(self):
        from repro.quiz.runner import grade
        from repro.service.sessions import QuizSession, grade_report_dict

        async def main():
            async with make_service(service_seed=7) as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    opened = await client.call_checked(
                        "quiz.open", {"session": "wire"}
                    )
                    current = opened
                    while not current["done"]:
                        answer = ("true" if current["kind"] == "true_false"
                                  else current["choices"][0])
                        current = await client.call_checked(
                            "quiz.answer",
                            {"session": "wire", "answer": answer},
                        )
                    served = await client.call_checked(
                        "quiz.grade", {"session": "wire"}
                    )
            # replay the identical session directly in-process
            direct = QuizSession.open(7, "wire")
            while not direct.finished:
                question = direct.current()
                direct.answer("true" if question["kind"] == "true_false"
                              else question["choices"][0])
            expected = grade_report_dict(grade(direct.responses))
            assert {k: served[k] for k in expected} == expected

        run(main())

    def test_concurrent_sessions_stay_isolated(self):
        async def main():
            async with make_service() as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    a = await client.call_checked(
                        "quiz.open", {"session": "a"})
                    b = await client.call_checked(
                        "quiz.open", {"session": "b"})
                    # interleave: answer a, then b, then a...
                    for _ in range(3):
                        for sid, cur in (("a", a), ("b", b)):
                            answer = ("dont-know"
                                      if cur["kind"] == "true_false"
                                      else cur["choices"][0])
                            nxt = await client.call_checked(
                                "quiz.answer",
                                {"session": sid, "answer": answer},
                            )
                            if sid == "a":
                                a = nxt
                            else:
                                b = nxt
                    assert a["position"] == 3
                    assert b["position"] == 3
                    assert a["qid"] != b["qid"] or a["qid"] == b["qid"]
                    # cursors advanced independently
                    stats = await client.call_checked("stats")
                    assert stats["handlers"]["sessions_open"] == 2

        run(main())


class TestRateLimitingAndShedding:
    def test_429_with_retry_after(self):
        async def main():
            async with make_service(rate=5.0, burst=3.0) as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    verdicts = [
                        await client.call("ping", client="hog")
                        for _ in range(6)
                    ]
                    limited = [v for v in verdicts if not v.ok]
                    assert len(limited) == 3
                    assert all(v.error_code == 429 for v in limited)
                    assert all(v.retry_after and v.retry_after > 0
                               for v in limited)
                    # an unrelated identity is unaffected
                    other = await client.call("ping", client="calm")
                    assert other.ok

        run(main())

    def test_retrying_client_eventually_succeeds(self):
        async def main():
            async with make_service(rate=50.0, burst=1.0) as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    results = [
                        await client.call_retrying("ping", client="p")
                        for _ in range(5)
                    ]
                    assert all(r["pong"] for r in results)

        run(main())

    def test_queue_full_sheds_503(self):
        async def main():
            # one dispatcher, tiny queue, slow-ish requests
            async with make_service(
                dispatchers=1, per_client_depth=2, total_depth=2,
                rate=1e6, burst=1e6,
            ) as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    # stuff the pipe faster than one dispatcher drains
                    calls = [
                        asyncio.create_task(client.call(
                            "study.figure", {"n_developers": 2,
                                             "n_students": 1,
                                             "seed": i},
                        ))
                        for i in range(12)
                    ]
                    responses = await asyncio.gather(*calls)
                    shed = [r for r in responses if not r.ok
                            and r.error_code == 503]
                    ok = [r for r in responses if r.ok]
                    assert service.shed == len(shed)
                    assert len(ok) + len(shed) == 12
                    assert shed, "expected at least one 503 shed"

        run(main())


class TestBitIdentity:
    def test_lint_over_wire_equals_direct_call(self):
        async def main():
            async with make_service() as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    served = await client.call_checked(
                        "lint", {"expr": "a*b + c", "config": "-O3"}
                    )
                    repeat = await client.call_checked(
                        "lint", {"expr": "a*b + c", "config": "-O3"}
                    )
            from repro.optsim.machine import optimization_level
            from repro.staticfp.lints import lint

            direct = lint("a*b + c", optimization_level("-O3")).to_dict()
            assert served == direct
            assert repeat == direct  # cache returns the same verdict

        run(main())

    def test_op_eval_over_wire_equals_direct_backend(self):
        async def main():
            import numpy as np

            from repro.fpenv.rounding import RoundingMode
            from repro.softfloat import BINARY32
            from repro.softfloat.backend import get_backend

            lanes = [0x3F800000, 0x00000000, 0x7F800000, 0x00000001]
            async with make_service() as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    served = await client.call_checked("op.eval", {
                        "op": "div", "format": "binary32",
                        "operands": [lanes, lanes[::-1]],
                    })
            direct = get_backend("auto").run_packed(
                "div", BINARY32,
                [np.asarray(lanes, dtype=np.uint64),
                 np.asarray(lanes[::-1], dtype=np.uint64)],
                RoundingMode.NEAREST_EVEN, False, False, None,
            )
            assert served["bits"] == [int(b) for b in direct.bits]
            assert served["flags"] == [int(f) for f in direct.flags]

        run(main())

    @pytest.mark.parametrize("bad", [0x10000, 1.5, True, -1, 2**64])
    def test_op_eval_bad_lane_fails_alone(self, bad):
        """An operand lane that is not a binary16 encoding gets 400
        naming its column and lane, and a valid rider sent in the same
        batch window still gets the scalar backend's bits."""
        async def main():
            import numpy as np

            from repro.fpenv.rounding import RoundingMode
            from repro.softfloat import BINARY16
            from repro.softfloat.backend import ScalarBackend

            good = [[0x3C00, 0x7BFF, 0x0001], [0x3C00, 0x7BFF, 0x8001]]
            async with make_service() as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    rejected, served = await asyncio.gather(
                        client.call("op.eval", {
                            "op": "add", "format": "binary16",
                            "operands": [[0x3C00, bad], [0x3C00, 0x3C00]],
                        }),
                        client.call("op.eval", {
                            "op": "add", "format": "binary16",
                            "operands": good,
                        }),
                    )
            assert rejected.error_code == 400
            assert "operands[0][1]" in rejected.error_message
            assert served.ok
            direct = ScalarBackend().run_packed(
                "add", BINARY16,
                [np.asarray(col, dtype=np.uint64) for col in good],
                RoundingMode.NEAREST_EVEN, False, False,
            )
            assert served.result["bits"] == [int(b) for b in direct.bits]
            assert served.result["flags"] == [int(f) for f in direct.flags]

        run(main())

    def test_oracle_slice_over_wire_equals_direct_call(self):
        async def main():
            engine = Engine(EngineConfig(workers=0, cache_enabled=False))
            async with make_service(engine=engine) as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    served = await client.call_checked("oracle.slice", {
                        "format": "binary16", "op": "add",
                        "budget": 60, "seed": 5, "case_hi": 20,
                    })
            import itertools

            from repro.fpenv.rounding import RoundingMode
            from repro.oracle.runner import run_op_slice
            from repro.softfloat.formats import FORMATS_BY_NAME

            matrix = tuple(itertools.product(
                (RoundingMode.NEAREST_EVEN,), ((False, False),)
            ))
            stats, discrepancies = run_op_slice(
                FORMATS_BY_NAME["binary16"], "add", 60, 5, matrix,
                "after", False, 25, 0, 20,
            )
            timing = ("wall_seconds", "evals_per_sec")
            expected = {k: v for k, v in stats.to_dict().items()
                        if k not in timing}
            assert {k: v for k, v in served["stats"].items()
                    if k not in timing} == expected
            assert served["discrepancies"] == [
                d.to_dict() for d in discrepancies
            ]

        run(main())


class TestFairness:
    def test_greedy_client_does_not_starve_light_client(self):
        async def main():
            async with make_service(
                dispatchers=1, rate=1e6, burst=1e6,
                per_client_depth=512,
            ) as service:
                greedy = await ServiceClient.open(
                    "127.0.0.1", service.port)
                light = await ServiceClient.open(
                    "127.0.0.1", service.port)
                async with greedy, light:
                    flood = [
                        asyncio.create_task(greedy.call(
                            "ping", {"echo": i}, client="greedy"))
                        for i in range(200)
                    ]
                    await asyncio.sleep(0.01)  # backlog forms
                    start = asyncio.get_running_loop().time()
                    response = await light.call("ping", client="light")
                    light_latency = (asyncio.get_running_loop().time()
                                     - start)
                    await asyncio.gather(*flood)
                    assert response.ok
                    # the light request jumped the 200-deep backlog
                    assert light_latency < 0.5
                    served = service.queue.served
                    assert served.get("light", 0) == 1

        run(main())


class TestShutdown:
    def test_graceful_drain_answers_accepted_requests(self):
        async def main():
            service = make_service(dispatchers=2, rate=1e6, burst=1e6)
            await service.start()
            client = await ServiceClient.open("127.0.0.1", service.port)
            calls = [
                asyncio.create_task(client.call("lint", {
                    "expr": f"a + {i}.0", "config": "-O2",
                }))
                for i in range(10)
            ]
            await asyncio.sleep(0.05)  # some queued, some in flight
            await service.stop()
            responses = await asyncio.gather(*calls)
            answered = [r for r in responses if r.ok]
            refused = [r for r in responses if not r.ok
                       and r.error_code == 503]
            # every call was answered one way or the other; everything
            # accepted before shutdown completed successfully
            assert len(answered) + len(refused) == 10
            assert service.accepted == service.answered + service.errors
            assert answered, "drain should complete accepted requests"
            await client.close()

        run(main())

    def test_requests_after_stop_are_refused(self):
        async def main():
            service = make_service()
            await service.start()
            client = await ServiceClient.open("127.0.0.1", service.port)
            assert (await client.call("ping")).ok
            service._accepting = False  # simulate drain beginning
            response = await client.call("ping")
            assert not response.ok
            assert response.error_code == 503
            await client.close()
            await service.stop()

        run(main())

    def test_stop_closes_engine(self):
        async def main():
            engine = Engine(EngineConfig(workers=0))
            async with make_service(engine=engine):
                pass
            with pytest.raises(Exception) as excinfo:
                from repro.engine import make_job

                engine.run(make_job("after-close", "engine.test.echo",
                                    [{}], cacheable=False))
            assert "closed" in str(excinfo.value)

        run(main())


class TestConcurrency:
    def test_mixed_concurrent_load_zero_errors(self):
        async def main():
            engine = Engine(EngineConfig(workers=0, cache_enabled=False))
            async with make_service(
                engine=engine, rate=1e6, burst=1e6,
            ) as service:
                async with await ServiceClient.open(
                    "127.0.0.1", service.port
                ) as client:
                    tasks = []
                    for i in range(30):
                        tasks.append(client.call(
                            "lint", {"expr": "a + b", "config": "-O2"}))
                        tasks.append(client.call("ping", {"echo": i}))
                        tasks.append(client.call("op.eval", {
                            "op": "mul", "format": "binary32",
                            "operands": [[0x3F800000], [0x40000000]],
                        }))
                    responses = await asyncio.gather(*tasks)
                    assert all(r.ok for r in responses)
                    stats = await client.call_checked("stats")
                    assert stats["errors"] == 0
                    # the lint cache collapsed 30 identical requests
                    assert stats["handlers"]["lint_cache"]["misses"] == 1

        run(main())
