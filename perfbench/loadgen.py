"""Open-loop load generation and the statistics the benchmark reports.

Requests arrive on a seeded Poisson schedule whatever the service is
doing.  Each request's latency runs from the moment it was *due*, so a
stall in the service (or in the generator) is charged to every request
that waited behind it, and the generator's own lateness — how long
after its due time each request actually left — is reported beside
the latencies so a run where the generator fell behind is visible.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import time

__all__ = [
    "poisson_schedule",
    "quantile",
    "tail_quantile",
    "Connection",
    "open_loop",
]

#: A tail percentile is only reported with at least this many samples
#: beyond it; fewer make the figure one or two unlucky requests.
MIN_BEYOND = 10

#: the last stretch before a due time is waited out by yielding to the
#: event loop rather than by a timer (timers fire up to 1 ms late)
_SPIN = 0.002


def poisson_schedule(rate: float, duration: float, seed: int) -> list[float]:
    """Arrival offsets (s) of a Poisson process of ``rate`` per second
    over ``[0, duration)``; the same seed gives the same schedule."""
    rng = random.Random(seed)
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def quantile(samples, p: float) -> float:
    """Nearest-rank ``p`` quantile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(samples, p: float):
    """The ``p`` quantile, or ``None`` when fewer than ``MIN_BEYOND``
    samples lie beyond its rank."""
    n = len(samples)
    if n == 0 or n - math.ceil(p * n) < MIN_BEYOND:
        return None
    return quantile(samples, p)


class Connection:
    """One NDJSON connection; requests are matched to replies by id."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._task = asyncio.ensure_future(self._read_loop())

    @staticmethod
    async def open(host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            host, port, limit=16 * 1024 * 1024
        )
        return Connection(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                received = time.perf_counter()
                payload = json.loads(line)
                future = self._pending.pop(payload.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((payload, received))
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self._pending.clear()

    async def call(self, method: str, params: dict, *,
                   client: str | None = None,
                   traceparent: str | None = None):
        """Send one request; returns ``(reply, sent, received)`` with
        ``perf_counter`` timestamps."""
        request_id = next(self._ids)
        request = {"id": request_id, "method": method, "params": params}
        if client is not None:
            request["client"] = client
        if traceparent is not None:
            request["traceparent"] = traceparent
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        sent = time.perf_counter()
        self._writer.write(json.dumps(request).encode() + b"\n")
        await self._writer.drain()
        reply, received = await future
        return reply, sent, received

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def open_loop(offsets, issue, *, lead: float = 0.05):
    """Call ``issue(index, due)`` at each offset, never waiting for
    earlier calls to finish.

    ``due`` is the ``perf_counter`` time the call was scheduled for;
    ``issue`` times its request from there.  Returns ``(late, results)``:
    per-call lateness in seconds (actual start minus due time) and the
    calls' results in schedule order.
    """
    start = time.perf_counter() + lead
    late = []
    tasks = []
    for index, offset in enumerate(offsets):
        due = start + offset
        wait = due - time.perf_counter()
        if wait > _SPIN:
            await asyncio.sleep(wait - _SPIN)
        # the loop's timers round up to whole milliseconds: finish the
        # wait by yielding, so other requests' replies are still read
        while time.perf_counter() < due:
            await asyncio.sleep(0)
        late.append(max(0.0, time.perf_counter() - due))
        tasks.append(asyncio.ensure_future(issue(index, due)))
    results = await asyncio.gather(*tasks)
    return late, results
