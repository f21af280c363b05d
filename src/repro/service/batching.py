"""Micro-batching: coalesce compatible requests into one backend call.

Two dispatchers, same shape:

- :class:`MicroBatcher` coalesces ``op.eval`` requests that share an
  evaluation cell — ``(op, format, mode, ftz, daz, dst_fmt)`` — into a
  single :meth:`~repro.softfloat.backend.SoftFloatBackend.run_packed`
  call over the concatenated lanes.  Because every backend is
  lane-wise bit-identical to the scalar reference (the PR 5
  differential contract), splitting the result back per request
  returns exactly the bits each request would have gotten alone.
- :class:`JobCoalescer` coalesces engine-backed requests (oracle
  slices, study simulations) that share a task name into one
  :class:`~repro.engine.tasks.Job` with one shard per request, run on
  the shared :class:`~repro.engine.engine.Engine` — so concurrent
  clients amortize pool dispatch, and the PR 4 fault tolerance
  (retry, quarantine, serial fallback) covers every rider.  Shard
  seeds are derived from each request's canonical spec, not its
  arrival position, so the result cache keys stay stable under any
  interleaving.

A batch flushes when it reaches ``max_lanes``/``max_jobs`` or when the
oldest rider has waited ``max_delay`` seconds — the classic
throughput/latency knob.  Riders receive their slice through a future.
When a coalesced call raises, every rider is rerun alone, so the error
reaches only the riders that cause it and their co-riders still get
their results (counted as ``service.batch_solo_reruns``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Any

from repro.engine.engine import Engine
from repro.engine.tasks import Job, Shard, TaskSpec, derive_seed
from repro.telemetry import get_telemetry

__all__ = ["MicroBatcher", "JobCoalescer", "BatchStats"]


def _registry(explicit):
    """The metrics registry a dispatcher reports into.

    Flushes run on the event loop in whatever rider's context scheduled
    them, so recording into the *ambient* session would scatter batch
    metrics across per-request sessions that are discarded after each
    response.  The service passes its own long-lived registry instead;
    the ambient fallback keeps standalone/test use observable.
    """
    return explicit if explicit is not None else get_telemetry().metrics


@dataclasses.dataclass
class BatchStats:
    """Observability for one dispatcher."""

    submitted: int = 0
    flushes: int = 0
    lanes: int = 0
    deadline_flushes: int = 0
    size_flushes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class _Pending:
    """One forming batch: riders' payloads and their futures."""

    __slots__ = ("payloads", "futures", "born", "timer")

    def __init__(self) -> None:
        self.payloads: list[Any] = []
        self.futures: list[asyncio.Future] = []
        self.born = time.monotonic()
        self.timer: asyncio.TimerHandle | None = None


class _BatcherBase:
    def __init__(self, *, max_delay: float, metrics=None) -> None:
        self.max_delay = max_delay
        self.stats = BatchStats()
        self.metrics = metrics
        self._pending: dict[Any, _Pending] = {}

    def _enqueue(self, key: Any, payload: Any) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        pending = self._pending.get(key)
        if pending is None:
            pending = _Pending()
            self._pending[key] = pending
            pending.timer = loop.call_later(
                self.max_delay, self._flush_deadline, key
            )
        pending.payloads.append(payload)
        pending.futures.append(future)
        self.stats.submitted += 1
        _registry(self.metrics).gauge(
            "service.batch_pending_riders"
        ).set(sum(len(p.futures) for p in self._pending.values()))
        return future

    def _take(self, key: Any) -> _Pending | None:
        pending = self._pending.pop(key, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()
        if pending is not None:
            _registry(self.metrics).gauge(
                "service.batch_pending_riders"
            ).set(sum(len(p.futures) for p in self._pending.values()))
        return pending

    def _flush_deadline(self, key: Any) -> None:
        pending = self._take(key)
        if pending is not None:
            self.stats.deadline_flushes += 1
            asyncio.ensure_future(self._run_flush(key, pending))

    async def _run_flush(self, key: Any, pending: _Pending) -> None:
        raise NotImplementedError

    async def _deliver(self, pending: _Pending, call) -> None:
        """Resolve the riders' futures from ``call(payloads)``, which
        returns one result per payload.  If the coalesced call raises,
        each rider reruns alone so only a failing rider gets an error."""
        try:
            outcomes = [(None, r) for r in
                        await asyncio.to_thread(call, pending.payloads)]
        except Exception as exc:
            if len(pending.payloads) == 1:
                outcomes = [(exc, None)]
            else:
                _registry(self.metrics).counter(
                    "service.batch_solo_reruns").inc()
                outcomes = []
                for payload in pending.payloads:
                    try:
                        (result,) = await asyncio.to_thread(call, [payload])
                        outcomes.append((None, result))
                    except Exception as solo_exc:
                        outcomes.append((solo_exc, None))
        for future, (exc, result) in zip(pending.futures, outcomes):
            if future.done():
                continue
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)

    async def drain(self) -> None:
        """Flush every forming batch and wait for the riders."""
        flushes = []
        for key in list(self._pending):
            pending = self._take(key)
            if pending is not None:
                flushes.append(self._run_flush(key, pending))
        if flushes:
            await asyncio.gather(*flushes)


class MicroBatcher(_BatcherBase):
    """Coalesce same-cell ``op.eval`` requests into one batch call."""

    def __init__(self, backend, *, max_lanes: int = 4096,
                 max_delay: float = 0.002, metrics=None) -> None:
        super().__init__(max_delay=max_delay, metrics=metrics)
        self.backend = backend
        self.max_lanes = max_lanes

    async def submit(
        self, key: tuple, operands: list[list[int]]
    ) -> tuple[list[int], list[int]]:
        """Evaluate one request's lanes inside a coalesced batch.

        ``key`` is the evaluation cell; ``operands`` is one list of
        packed encodings per operand.  Returns ``(bits, flags)`` for
        exactly this request's lanes.
        """
        future = self._enqueue(key, operands)
        pending = self._pending.get(key)
        if pending is not None and sum(
            len(p[0]) for p in pending.payloads
        ) >= self.max_lanes:
            taken = self._take(key)
            if taken is not None:
                self.stats.size_flushes += 1
                asyncio.ensure_future(self._run_flush(key, taken))
        return await future

    async def _run_flush(self, key: Any, pending: _Pending) -> None:
        import numpy as np

        from repro.softfloat import FloatFormat  # noqa: F401 (doc anchor)

        op, fmt, mode, ftz, daz, dst_fmt = key
        arity = len(pending.payloads[0])
        total = sum(len(p[0]) for p in pending.payloads)
        self.stats.flushes += 1
        self.stats.lanes += total
        metrics = _registry(self.metrics)
        metrics.log_histogram("service.batch_lanes").observe(total)
        metrics.log_histogram("service.batch_riders").observe(
            len(pending.payloads)
        )
        metrics.gauge("service.batch_fill_ratio").set(
            total / self.max_lanes if self.max_lanes else 0.0
        )

        def run(payloads):
            operands = [
                np.asarray(
                    [lane for payload in payloads for lane in payload[i]],
                    dtype=np.uint64,
                )
                for i in range(arity)
            ]
            result = self.backend.run_packed(
                op, fmt, operands, mode, ftz, daz, dst_fmt=dst_fmt
            )
            bits, flags = result.bits.tolist(), result.flags.tolist()
            split, offset = [], 0
            for payload in payloads:
                n = len(payload[0])
                split.append((bits[offset:offset + n], flags[offset:offset + n]))
                offset += n
            return split

        await self._deliver(pending, run)


class JobCoalescer(_BatcherBase):
    """Coalesce engine-backed requests into one multi-shard job."""

    def __init__(self, engine: Engine, *, max_jobs: int = 16,
                 max_delay: float = 0.01, seed: int = 754,
                 metrics=None) -> None:
        super().__init__(max_delay=max_delay, metrics=metrics)
        self.engine = engine
        self.max_jobs = max_jobs
        self.seed = seed

    async def submit(self, task_name: str, params: dict[str, Any]) -> Any:
        """Run one task invocation inside a coalesced engine job."""
        future = self._enqueue(task_name, dict(params))
        pending = self._pending.get(task_name)
        if pending is not None and len(pending.payloads) >= self.max_jobs:
            taken = self._take(task_name)
            if taken is not None:
                self.stats.size_flushes += 1
                asyncio.ensure_future(self._run_flush(task_name, taken))
        return await future

    async def _run_flush(self, key: Any, pending: _Pending) -> None:
        task_name = key
        self.stats.flushes += 1
        self.stats.lanes += len(pending.payloads)
        metrics = _registry(self.metrics)
        metrics.log_histogram("service.job_riders").observe(
            len(pending.payloads)
        )
        metrics.gauge("service.job_fill_ratio").set(
            len(pending.payloads) / self.max_jobs if self.max_jobs else 0.0
        )

        def run(payloads):
            shards = tuple(
                Shard(
                    index=index,
                    spec=(spec := TaskSpec(task=task_name, params=params)),
                    # spec-addressed, not position-addressed: the cache
                    # key must not depend on who else rode this batch
                    seed=derive_seed(self.seed, task_name, spec.canonical()),
                )
                for index, params in enumerate(payloads)
            )
            job = Job(name=f"service.{task_name}", shards=shards, merge=None)
            return self.engine.run(job)

        await self._deliver(pending, run)
