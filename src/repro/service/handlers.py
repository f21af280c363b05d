"""Request handlers: every service method, mapped onto the library.

Each handler is a coroutine taking the request's ``params`` dict and
returning a JSON-able result.  Handlers never block the event loop:
CPU-bound library calls run via :func:`asyncio.to_thread` (directly,
or inside the batching dispatchers), which propagates the per-request
``contextvars`` telemetry session into the worker thread.

Pure, deterministic request classes (``lint``, ``study.figure``) sit
behind a single-flight response cache: the first request computes, the
rest — concurrent or later — await the same future and receive the
same object.  This is what lets a 33 ms lint serve thousands of
queries per second without ever returning anything different from a
direct library call (the cached value *is* a direct library call's
result).
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from typing import Any, Awaitable, Callable

from repro.errors import ReproError, ServiceError
from repro.service.batching import JobCoalescer, MicroBatcher
from repro.service.protocol import BAD_REQUEST, NOT_FOUND
from repro.service.sessions import SessionStore

__all__ = ["Handlers", "SingleFlightCache"]


class SingleFlightCache:
    """An async LRU where concurrent misses share one computation.

    ``get_or_compute(key, thunk)`` returns the cached value, or awaits
    the in-flight computation if one exists, or starts ``thunk`` and
    caches its result.  A failed computation is *not* cached — the
    next request retries.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[Any, asyncio.Future]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    async def get_or_compute(
        self, key: Any, thunk: Callable[[], Awaitable[Any]]
    ) -> Any:
        future = self._entries.get(key)
        if future is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return await asyncio.shield(future)
        self.misses += 1
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._entries[key] = future
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        try:
            value = await thunk()
        except BaseException as exc:
            self._entries.pop(key, None)
            if not future.done():
                future.set_exception(exc)
                # consumed by awaiting riders (if any); don't warn
                future.exception()
            raise
        if not future.done():
            future.set_result(value)
        return value


def _canonical(params: dict[str, Any]) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _require(params: dict[str, Any], key: str) -> Any:
    try:
        return params[key]
    except KeyError:
        raise ServiceError(BAD_REQUEST, f"missing required param {key!r}")


class Handlers:
    """The method table behind the dispatcher."""

    def __init__(
        self,
        *,
        service_seed: int = 754,
        engine=None,
        backend: str = "auto",
        sessions: SessionStore | None = None,
        batcher: MicroBatcher | None = None,
        coalescer: JobCoalescer | None = None,
        cache_entries: int = 4096,
    ) -> None:
        from repro.softfloat.backend import get_backend

        self.service_seed = service_seed
        self.engine = engine
        self.sessions = sessions or SessionStore(service_seed)
        self.batcher = batcher or MicroBatcher(get_backend(backend))
        self.coalescer = coalescer  # None => run engine tasks unbatched
        self.lint_cache = SingleFlightCache(cache_entries)
        self.study_cache = SingleFlightCache(max_entries=8)
        self._methods: dict[str, Callable[[dict], Awaitable[Any]]] = {
            "ping": self.ping,
            "quiz.open": self.quiz_open,
            "quiz.question": self.quiz_question,
            "quiz.answer": self.quiz_answer,
            "quiz.grade": self.quiz_grade,
            "lint": self.lint,
            "op.eval": self.op_eval,
            "oracle.slice": self.oracle_slice,
            "study.figure": self.study_figure,
        }

    def methods(self) -> tuple[str, ...]:
        return tuple(self._methods)

    async def dispatch(self, method: str, params: dict[str, Any]) -> Any:
        handler = self._methods.get(method)
        if handler is None:
            raise ServiceError(
                NOT_FOUND,
                f"unknown method {method!r}; known: "
                + ", ".join(sorted(self._methods)),
            )
        try:
            return await handler(params)
        except (ServiceError, asyncio.CancelledError):
            raise
        except (ValueError, KeyError, TypeError, ReproError) as exc:
            # library-level validation errors are the client's fault
            raise ServiceError(BAD_REQUEST, f"{exc}") from exc

    async def drain(self) -> None:
        """Flush both batching dispatchers (shutdown path)."""
        await self.batcher.drain()
        if self.coalescer is not None:
            await self.coalescer.drain()

    # -- trivial ------------------------------------------------------

    async def ping(self, params: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "echo": params.get("echo")}

    # -- quiz sessions ------------------------------------------------

    async def quiz_open(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self.sessions.open(params.get("session"))
        payload = session.current()
        payload["session"] = session.session_id
        return payload

    async def quiz_question(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self.sessions.get(_require(params, "session"))
        payload = session.current()
        payload["session"] = session.session_id
        return payload

    async def quiz_answer(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self.sessions.get(_require(params, "session"))
        payload = session.answer(str(_require(params, "answer")))
        payload["session"] = session.session_id
        return payload

    async def quiz_grade(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self.sessions.get(_require(params, "session"))
        payload = session.grade()
        if params.get("close", True):
            self.sessions.close(session.session_id)
        return payload

    # -- static analysis ----------------------------------------------

    @staticmethod
    def _machine_config(name: str):
        from repro.optsim.machine import STRICT, optimization_level

        if name in ("strict-ieee", STRICT.name):
            return STRICT
        return optimization_level(name)

    async def lint(self, params: dict[str, Any]) -> dict[str, Any]:
        expr = str(_require(params, "expr"))
        config_name = str(params.get("config", "strict-ieee"))
        witness = bool(params.get("witness", False))
        bindings = params.get("bindings")
        key = _canonical(
            {"expr": expr, "config": config_name, "witness": witness,
             "bindings": bindings}
        )

        async def compute() -> dict[str, Any]:
            from repro.staticfp.lints import lint

            config = self._machine_config(config_name)
            converted = None
            if bindings is not None:
                converted = {
                    name: tuple(bound) if isinstance(bound, list) else bound
                    for name, bound in bindings.items()
                }
            report = await asyncio.to_thread(
                lint, expr, config, converted, witness=witness
            )
            return report.to_dict()

        return await self.lint_cache.get_or_compute(key, compute)

    # -- batched scalar evaluation ------------------------------------

    async def op_eval(self, params: dict[str, Any]) -> dict[str, Any]:
        from repro.fpenv.rounding import MODE_ALIASES, RoundingMode
        from repro.softfloat.backend import BACKEND_OP_ARITY
        from repro.softfloat.formats import FORMATS_BY_NAME

        op = str(_require(params, "op"))
        arity = BACKEND_OP_ARITY.get(op)
        if arity is None:
            raise ServiceError(
                BAD_REQUEST,
                f"unknown op {op!r}; known: "
                + ", ".join(sorted(BACKEND_OP_ARITY)),
            )
        fmt_name = str(_require(params, "format"))
        fmt = FORMATS_BY_NAME.get(fmt_name)
        if fmt is None:
            raise ServiceError(
                BAD_REQUEST,
                f"unknown format {fmt_name!r}; known: "
                + ", ".join(FORMATS_BY_NAME),
            )
        mode_name = str(params.get("mode", "rne"))
        mode = MODE_ALIASES.get(mode_name)
        if mode is None:
            try:
                mode = RoundingMode[mode_name]
            except KeyError:
                raise ServiceError(
                    BAD_REQUEST,
                    f"unknown rounding mode {mode_name!r}; known: "
                    + ", ".join(MODE_ALIASES),
                )
        ftz = bool(params.get("ftz", False))
        daz = bool(params.get("daz", False))
        dst_fmt = None
        if params.get("dst_format") is not None:
            dst_fmt = FORMATS_BY_NAME.get(str(params["dst_format"]))
            if dst_fmt is None:
                raise ServiceError(
                    BAD_REQUEST,
                    f"unknown dst_format {params['dst_format']!r}",
                )
        operands = _require(params, "operands")
        if (not isinstance(operands, list) or len(operands) != arity
                or not all(isinstance(col, list) for col in operands)):
            raise ServiceError(
                BAD_REQUEST,
                f"{op} expects 'operands' as {arity} lists of packed ints",
            )
        lanes = {len(col) for col in operands}
        if len(lanes) != 1:
            raise ServiceError(
                BAD_REQUEST, "operand columns must have equal lane counts"
            )
        if lanes == {0}:
            return {"bits": [], "flags": []}
        # Checked before coalescing: one bad lane must fail only its own
        # request, never the strangers batched beside it.
        limit = 1 << fmt.width
        for column, col in enumerate(operands):
            for lane, value in enumerate(col):
                # ``type`` rather than ``isinstance``: JSON true is a bool
                if type(value) is not int or not 0 <= value < limit:
                    raise ServiceError(
                        BAD_REQUEST,
                        f"operands[{column}][{lane}] = {value!r} is not a"
                        f" {fmt.name} encoding (an integer in"
                        f" [0, 2**{fmt.width}))",
                    )
        key = (op, fmt, mode, ftz, daz, dst_fmt)
        bits, flags = await self.batcher.submit(key, operands)
        return {"bits": bits, "flags": flags}

    # -- engine-backed jobs -------------------------------------------

    async def _run_task(self, task_name: str, params: dict[str, Any]) -> Any:
        if self.coalescer is not None:
            return await self.coalescer.submit(task_name, params)
        from repro.engine.tasks import ShardContext, execute_task

        ctx = ShardContext(index=0, n_shards=1, seed=self.service_seed)
        return await asyncio.to_thread(
            execute_task, task_name, params, ctx
        )

    async def oracle_slice(self, params: dict[str, Any]) -> dict[str, Any]:
        from repro.softfloat.backend import BACKEND_OP_ARITY
        from repro.softfloat.formats import FORMATS_BY_NAME

        fmt_name = str(_require(params, "format"))
        if fmt_name not in FORMATS_BY_NAME:
            raise ServiceError(
                BAD_REQUEST, f"unknown format {fmt_name!r}"
            )
        op = str(_require(params, "op"))
        if op not in BACKEND_OP_ARITY:
            raise ServiceError(BAD_REQUEST, f"unknown op {op!r}")
        budget = int(params.get("budget", 2000))
        case_lo = int(params.get("case_lo", 0))
        case_hi = int(_require(params, "case_hi"))
        if not (0 <= case_lo <= case_hi):
            raise ServiceError(
                BAD_REQUEST, "need 0 <= case_lo <= case_hi"
            )
        task_params = {
            "format": fmt_name,
            "op": op,
            "budget": budget,
            "seed": int(params.get("seed", self.service_seed)),
            "modes": [
                self._mode_value(m)
                for m in params.get("modes", ["rne"])
            ],
            "env_combos": [
                [bool(f), bool(d)]
                for f, d in params.get("env_combos", [[False, False]])
            ],
            "tininess": str(params.get("tininess", "after")),
            "native": bool(params.get("native", False)),
            "max_discrepancies": int(params.get("max_discrepancies", 25)),
            "case_lo": case_lo,
            "case_hi": case_hi,
            "engine_backend": str(params.get("engine_backend", "scalar")),
        }
        return await self._run_task("oracle.op_slice", task_params)

    @staticmethod
    def _mode_value(name: str):
        from repro.fpenv.rounding import MODE_ALIASES, RoundingMode

        mode = MODE_ALIASES.get(str(name))
        if mode is None:
            try:
                mode = RoundingMode[str(name)]
            except KeyError:
                raise ServiceError(
                    BAD_REQUEST, f"unknown rounding mode {name!r}"
                )
        return mode.value

    # -- study figures ------------------------------------------------

    async def study_figure(self, params: dict[str, Any]) -> dict[str, Any]:
        seed = int(params.get("seed", self.service_seed))
        n_developers = int(params.get("n_developers", 199))
        n_students = int(params.get("n_students", 52))
        figure_id = params.get("figure")
        key = (seed, n_developers, n_students)

        async def compute():
            from repro.analysis.study import run_study

            return await asyncio.to_thread(
                run_study, seed, n_developers, n_students
            )

        results = await self.study_cache.get_or_compute(key, compute)
        figures = {f.figure_id: f for f in results.figures}
        if figure_id is None:
            return {"figures": sorted(figures)}
        figure = figures.get(str(figure_id))
        if figure is None:
            raise ServiceError(
                NOT_FOUND,
                f"unknown figure {figure_id!r}; known: "
                + ", ".join(sorted(figures)),
            )
        return {
            "figure_id": figure.figure_id,
            "title": figure.title,
            "text": figure.text,
            "data": figure.data,
        }

    # -- stats --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "sessions_open": len(self.sessions),
            "sessions_evicted": self.sessions.evicted,
            "lint_cache": {
                "entries": len(self.lint_cache),
                "hits": self.lint_cache.hits,
                "misses": self.lint_cache.misses,
            },
            "batcher": self.batcher.stats.to_dict(),
        }
        if self.coalescer is not None:
            payload["coalescer"] = self.coalescer.stats.to_dict()
        return payload
