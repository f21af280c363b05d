"""The two service workloads: ``serve-interactive`` and ``serve-analyze``.

The benchmark starts ``repro serve`` as its own process (through
``serve_host.py`` when traced, so the layer wrappers live in the
server), drives it from this process with a seeded open-loop Poisson
stream over at most ``nproc`` connections, and afterwards checks a
seeded sample of the replies bit for bit against direct library calls.
Every request is well formed: this benchmark measures speed, not the
service's handling of bad input.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import re
import select
import signal
import statistics
import struct
import subprocess
import sys
import time

import spans
from common import (
    HERE,
    ROOT,
    RUN_DIR,
    cpu_seconds,
    kill_group,
    nproc,
    peak_rss_mb,
    program_env,
    read_steal,
    steal_share,
)
from loadgen import (
    Connection,
    open_loop,
    poisson_schedule,
    quantile,
    tail_quantile,
)

#: lint requests of serve-interactive: a small pool, so after the first
#: request of each the service answers from its response cache
INTERACTIVE_LINTS = (
    ("a*b + c", "-O3"),
    ("a + b", "-O2"),
    ("(a + b) - a", "-Ofast"),
    ("x / y", "strict-ieee"),
    ("a*a - b*b", "-O1"),
    ("sqrt(a)", "strict-ieee"),
)

#: corpus entries serve-analyze lints with ``witness=true``; bindings
#: are perturbed per request so every request misses the cache
ANALYZE_LINT_KEYS = (
    "associativity", "ordering", "overflow", "divide_by_zero",
    "zero_divide_by_zero", "saturation_plus", "saturation_minus",
    "denormal_precision", "exception_signal", "negative_zero", "madd",
    "flush_to_zero", "opt_level",
)

OPS = {"add": 2, "mul": 2, "div": 2, "sqrt": 1, "fma": 3}
MODES = ("rne", "rna", "rtz", "rtp", "rtn")
WIDTH = {"binary32": 32, "binary64": 64}

_SERVING = re.compile(rb"serving on [^:]+:(\d+)")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _lane(rng: random.Random, fmt: str) -> int:
    """A packed operand: mostly normal values over a wide exponent
    range, some subnormals, some arbitrary encodings (NaN, inf)."""
    width = WIDTH[fmt]
    roll = rng.random()
    if roll < 0.15:
        return rng.getrandbits(width)
    sign = rng.getrandbits(1)
    if roll < 0.25:
        mantissa_bits = 23 if width == 32 else 52
        return (sign << (width - 1)) | rng.getrandbits(mantissa_bits)
    span = 30 if width == 32 else 60
    value = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-span, span)
    value = -value if sign else value
    if width == 32:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _perturb(bindings, rng: random.Random) -> dict:
    """Corpus ranges nudged by under 0.1%, keeping each range ordered."""
    out = {}
    for name, (lo, hi) in bindings:
        lo_f = float(lo) * (1.0 + rng.random() * 1e-3)
        hi_f = float(hi) * (1.0 + rng.random() * 1e-3)
        lo_f, hi_f = min(lo_f, hi_f), max(lo_f, hi_f)
        out[name] = [repr(lo_f), repr(hi_f)]
    return out


def plan_requests(workload: str, cfg: dict, seed: int, count: int) -> list:
    """One operation per arrival, drawn from the workload's mix."""
    from repro.staticfp.corpus import entry_by_key

    rng = random.Random(f"{workload}:{seed}:plan")
    kinds = list(cfg["mix"])
    weights = [cfg["mix"][k] for k in kinds]
    lo, hi = cfg["op_lanes"]
    plan = []
    for index in range(count):
        kind = rng.choices(kinds, weights)[0]
        client = f"client-{rng.randrange(cfg['clients'])}"
        if kind == "ping":
            op = ("ping", {"echo": index})
        elif kind == "quiz":
            op = ("quiz", {"session": f"q{seed}-{index}",
                           "answer_seed": rng.getrandbits(32)})
        elif kind == "lint" and workload == "serve-interactive":
            expr, config = rng.choice(INTERACTIVE_LINTS)
            op = ("lint", {"expr": expr, "config": config})
        elif kind == "lint":
            entry = entry_by_key(rng.choice(ANALYZE_LINT_KEYS))
            op = ("lint", {
                "expr": entry.expr,
                "config": entry.level if entry.level != "strict"
                else "strict-ieee",
                "witness": True,
                "bindings": _perturb(entry.bindings, rng),
            })
        else:
            name = rng.choice(sorted(OPS))
            lanes = rng.randint(lo, hi)
            flush = workload == "serve-analyze" and rng.random() < 0.5
            op = ("op.eval", {
                "op": name,
                "format": cfg["op_format"],
                "mode": rng.choice(MODES) if workload == "serve-analyze"
                else "rne",
                "ftz": flush,
                "daz": flush,
                "operands": [
                    [_lane(rng, cfg["op_format"]) for _ in range(lanes)]
                    for _ in range(OPS[name])
                ],
            })
        trace_id = f"{rng.getrandbits(128):032x}"
        plan.append((op[0], op[1], client, trace_id))
    return plan


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` process."""

    def __init__(self, watchdog, service_seed: int, spans_out=None) -> None:
        args = ["--port", "0", "--seed", str(service_seed)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_host.py"),
                   "--spans-out", str(spans_out), "--", *args]
        RUN_DIR.mkdir(exist_ok=True)
        self.log = open(RUN_DIR / "server.log", "ab")
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self.log, process_group=0,
        )
        self.watchdog = watchdog
        watchdog.adopt(self.process)
        self.port = self._read_port()

    def _read_port(self) -> int:
        buffered = b""
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                chunk = self.process.stdout.readline()
                if not chunk:
                    break
                buffered += chunk
                found = _SERVING.search(buffered)
                if found:
                    return int(found.group(1))
            elif self.process.poll() is not None:
                break
        raise RuntimeError(
            f"server did not report its port (exit {self.process.poll()})"
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM and wait: the service drains, then exits."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(30)
        kill_group(self.process)  # workers it may have left behind
        self.process.stdout.close()
        self.log.close()
        self.watchdog.release(self.process)
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")


async def _first_reply(port: int) -> float:
    conn = await Connection.open("127.0.0.1", port)
    try:
        reply, _, received = await conn.call("ping", {"echo": 0})
    finally:
        await conn.close()
    if not reply.get("ok"):
        raise RuntimeError(f"first ping failed: {reply}")
    return received


def start_server(watchdog, service_seed: int, spans_out=None):
    """Launch a server; returns it and its set-up time (s): launch to
    the first completed request."""
    server = Server(watchdog, service_seed, spans_out)
    received = asyncio.run(_first_reply(server.port))
    return server, received - server.launched


# ----------------------------------------------------------------------
# the load
# ----------------------------------------------------------------------

def _choose_answer(question: dict, rng: random.Random) -> str:
    if "choices" in question:
        return rng.choice(list(question["choices"]) + ["dont-know"])
    return rng.choice(["true", "false", "dont-know"])


@dataclasses.dataclass
class Load:
    """What one open-loop window produced."""

    late: list          # generator lateness per arrival (s)
    results: list       # per arrival: its request samples, in order
    transcripts: dict   # arrival index -> (session, answers, grade sample)
    stats: dict         # the service's ``stats`` reply after the window
    since_ns: int       # the window, on the host-wide monotonic clock
    until_ns: int
    server_cpu_s: float
    steal: float        # share of the host's CPU time the hypervisor took

    @property
    def samples(self) -> list:
        return [sample for group in self.results for sample in group]


async def _drive(port: int, plan, offsets, cfg: dict, pid: int) -> Load:
    """Run the open loop over ``plan`` at ``offsets``."""
    conns = [await Connection.open("127.0.0.1", port)
             for _ in range(max(1, nproc()))]
    transcripts = {}

    async def timed(conn, method, params, client, trace_id, due):
        traceparent = f"00-{trace_id}-{trace_id[:16]}-01"
        reply, sent, received = await conn.call(
            method, params, client=client, traceparent=traceparent
        )
        return {
            "method": method,
            "due": due,
            "from_due": received - due,
            "from_send": received - sent,
            "ok": bool(reply.get("ok")),
            "code": (reply.get("error") or {}).get("code"),
            "telemetry": reply.get("telemetry") or {},
            "result": reply.get("result"),
            "trace_id": trace_id,
            "received": received,
        }

    async def issue(index: int, due: float):
        kind, params, client, trace_id = plan[index]
        conn = conns[index % len(conns)]
        if kind != "quiz":
            return [await timed(conn, kind, params, client, trace_id, due)]
        # a quiz session: each step is due when the previous one returns
        rng = random.Random(params["answer_seed"])
        session = params["session"]
        samples = [await timed(conn, "quiz.open", {"session": session},
                               client, trace_id, due)]
        answers = []
        for step in range(cfg["quiz_answers"]):
            question = samples[-1]["result"] or {}
            if question.get("done", True):
                break
            answers.append(_choose_answer(question, rng))
            samples.append(await timed(
                conn, "quiz.answer", {"session": session,
                                      "answer": answers[-1]},
                client, f"{trace_id[:-2]}{step:02x}",
                samples[-1]["received"],
            ))
        samples.append(await timed(
            conn, "quiz.grade", {"session": session}, client,
            f"{trace_id[:-2]}ff", samples[-1]["received"],
        ))
        transcripts[index] = (session, answers, samples[-1])
        return samples

    steal = read_steal()
    since, cpu_start = time.monotonic_ns(), cpu_seconds(pid)
    late, results = await open_loop(offsets, issue)
    until, cpu = time.monotonic_ns(), cpu_seconds(pid) - cpu_start
    steal = steal_share(steal, read_steal())
    stats, _, _ = await conns[0].call("stats", {})
    for conn in conns:
        await conn.close()
    return Load(late, results, transcripts, stats.get("result") or {},
                since, until, cpu, steal)


async def _warm(port: int, plan) -> None:
    """One request of every distinct lint and op cell before timing."""
    conn = await Connection.open("127.0.0.1", port)
    try:
        seen = set()
        for kind, params, client, _trace in plan:
            if kind == "lint" and not params.get("witness"):
                key = (params["expr"], params["config"])
            elif kind == "op.eval":
                key = (params["op"], params["mode"], params["ftz"])
            else:
                continue
            if key not in seen:
                seen.add(key)
                await conn.call(kind, params, client=client)
    finally:
        await conn.close()


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------

def _normalize(value):
    return json.loads(json.dumps(value))


def gate(workload: str, cfg: dict, seed: int, service_seed: int, plan,
         results, transcripts) -> list[str]:
    """Compare a seeded sample of served replies with direct library
    calls; returns the mismatches found."""
    import numpy as np

    from repro.oracle.runner import FORMATS_BY_NAME, MODE_ALIASES
    from repro.optsim.machine import STRICT, optimization_level
    from repro.service.sessions import QuizSession
    from repro.softfloat.backend import get_backend
    from repro.staticfp.lints import lint

    rng = random.Random(f"{workload}:{seed}:gate")
    by_kind: dict[str, list[int]] = {}
    for index, (kind, *_rest) in enumerate(plan[:len(results)]):
        by_kind.setdefault(kind, []).append(index)
    n = cfg["gate_samples"]
    problems = []
    scalar = get_backend("scalar")

    for index in rng.sample(by_kind.get("op.eval", []),
                            min(n, len(by_kind.get("op.eval", [])))):
        params = plan[index][1]
        served = results[index][0]
        if not served["ok"]:
            problems.append(f"op.eval #{index} failed: {served['code']}")
            continue
        fmt = FORMATS_BY_NAME[params["format"]]
        direct = scalar.run_packed(
            params["op"], fmt,
            [np.asarray(col, dtype=np.uint64) for col in params["operands"]],
            MODE_ALIASES[params["mode"]], params["ftz"], params["daz"],
        )
        want = {"bits": [int(b) for b in direct.bits],
                "flags": [int(f) for f in direct.flags]}
        if served["result"] != want:
            problems.append(f"op.eval #{index} differs from the library")

    lint_indices = by_kind.get("lint", [])
    checked = set()
    for index in rng.sample(lint_indices, min(n, len(lint_indices))):
        params = plan[index][1]
        key = json.dumps(params, sort_keys=True)
        if key in checked:
            continue
        checked.add(key)
        served = results[index][0]
        if not served["ok"]:
            problems.append(f"lint #{index} failed: {served['code']}")
            continue
        config = (STRICT if params["config"] == "strict-ieee"
                  else optimization_level(params["config"]))
        bindings = params.get("bindings")
        if bindings is not None:
            bindings = {k: tuple(v) for k, v in bindings.items()}
        direct = lint(params["expr"], config, bindings,
                      witness=bool(params.get("witness", False)))
        if served["result"] != _normalize(direct.to_dict()):
            problems.append(f"lint #{index} differs from the library")

    quiz_indices = sorted(transcripts)
    for index in rng.sample(quiz_indices, min(n, len(quiz_indices))):
        session_id, answers, served = transcripts[index]
        if not served["ok"]:
            problems.append(f"quiz #{index} grade failed: {served['code']}")
            continue
        session = QuizSession.open(service_seed, session_id)
        for answer in answers:
            session.answer(answer)
        if served["result"] != _normalize(session.grade()):
            problems.append(f"quiz #{index} grade differs from the library")

    for index in by_kind.get("ping", []):
        served = results[index][0]
        if served["ok"] and served["result"] != {"pong": True, "echo": index}:
            problems.append(f"ping #{index} echoed the wrong payload")
    return problems


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool, config: dict,
        watchdog, capacity: bool = False) -> dict:
    cfg = config[workload]
    service_seed = config["service_seed"]
    offsets = poisson_schedule(cfg["rate"], seconds,
                               _schedule_seed(workload, seed))
    plan = plan_requests(workload, cfg, seed, len(offsets))

    spans_out = RUN_DIR / f"spans-{workload}.json" if trace else None
    setups = []
    launches = 1 if trace else config["setup_launches"]
    for attempt in range(launches):
        watchdog.phase(f"setup (launch {attempt + 1})", 60)
        server, setup = start_server(watchdog, service_seed, spans_out)
        setups.append(setup)
        if attempt < launches - 1:
            server.stop()

    watchdog.phase("warm-up", 30)
    asyncio.run(_warm(server.port, plan))

    watchdog.phase("load", seconds + 40)
    load = asyncio.run(
        _drive(server.port, plan, offsets, cfg, server.process.pid)
    )
    # before the capacity ladder, whose higher rates would raise it
    rss = server.peak_rss_mb()
    capacity_result = None
    if capacity:
        watchdog.phase("capacity", 150)
        capacity_result = asyncio.run(_capacity(
            server.port, workload, cfg, seed, server.process.pid,
            base_passed=_meets_limit(load.samples, cfg["p99_limit_ms"]),
        ))
    watchdog.phase("drain", 40)
    server.stop()

    watchdog.phase("gate", 60)
    problems = gate(workload, cfg, seed, service_seed, plan, load.results,
                    load.transcripts)

    samples = load.samples
    failed = sum(1 for s in samples if not s["ok"])
    latencies = [s["from_due"] for s in samples]
    result = {
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
        "setup_samples_s": setups,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": _ms(quantile(latencies, 0.5)),
            "peak_rss_mb": rss,
        },
        "extra": {
            "latency_p99_ms": _ms(tail_quantile(latencies, 0.99)),
            "latency_samples": len(latencies),
            "steal_share": load.steal,
            "offered_rate_per_s": cfg["rate"],
            "p99_limit_ms": cfg["p99_limit_ms"],
            "error_rate": failed / len(samples),
            "server_cpu_share": (load.server_cpu_s * 1e9
                                 / (load.until_ns - load.since_ns)),
            **{
                f"latency_p50_ms[{method}]": _ms(quantile(
                    [s["from_due"] for s in samples if s["method"] == method],
                    0.5,
                ))
                for method in sorted({s["method"] for s in samples})
            },
        },
    }
    if capacity_result is not None:
        result["extra"]["capacity_rps"] = capacity_result["capacity_rps"]
        result["extra"]["capacity_steps"] = capacity_result["steps"]
    if trace:
        result["layers"] = layers = _layers(load, spans_out)
        if layers["engine_runs"]:
            problems.append(
                f"the server ran {layers['engine_runs']} engine jobs; this"
                " workload sends no engine-backed method"
            )
    return result


def _schedule_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}:schedule").getrandbits(32)


def _layers(load: Load, spans_out) -> dict:
    """Per-layer metrics of a traced run, from the spans that started
    inside the timed window."""
    samples = load.samples
    ok = [s for s in samples if s["ok"]]
    queue = [s["telemetry"].get("queue_ms", 0.0) for s in ok]
    handle = [s["telemetry"].get("handle_ms", 0.0) for s in ok]
    wire = [s["from_send"] * 1e3 - s["telemetry"].get("queue_ms", 0.0)
            - s["telemetry"].get("handle_ms", 0.0) for s in ok]
    stats = load.stats
    handlers = stats.get("handlers") or {}
    batcher = handlers.get("batcher") or {}
    lint_cache = handlers.get("lint_cache") or {}
    looked_up = lint_cache.get("hits", 0) + lint_cache.get("misses", 0)
    records = spans.load(spans_out, load.since_ns, load.until_ns)
    span_summary = spans.summarize(records)
    overhead = (len(records) * spans.calibrate_span_cost() / load.server_cpu_s
                if load.server_cpu_s else 0.0)
    sent_traces = {s["trace_id"] for s in samples}
    foreign = [t for t in span_summary["trace_ids"] if t not in sent_traces]
    layers = {
        "service.queue_ms.p50": quantile(queue, 0.5),
        "service.queue_ms.p99": tail_quantile(queue, 0.99),
        "service.handle_ms.p50": quantile(handle, 0.5),
        "service.handle_ms.p99": tail_quantile(handle, 0.99),
        "service.wire_ms.p50": quantile(wire, 0.5),
        "service.batch_lanes_mean": (batcher.get("lanes", 0)
                                     / batcher["flushes"]
                                     if batcher.get("flushes") else 0.0),
        "service.lint_cache_hit_ratio": (lint_cache.get("hits", 0) / looked_up
                                         if looked_up else 0.0),
        "service.errors": stats.get("errors", 0),
        "service.limited": stats.get("limited", 0),
        "service.shed": stats.get("shed", 0),
        "loadgen.late_ms.p99": _ms(tail_quantile(load.late, 0.99)),
        "loadgen.late_ms.max": _ms(max(load.late)),
        "loadgen.sent": len(samples),
        "trace.overhead_ratio": overhead,
        # the engine's overhead needs the serial replay only the sweep
        # makes; with no engine job (checked by the caller) there is none
        "engine.overhead_s": 0.0,
        "engine.efficiency": 0.0,
        # no sweep slices run in the serve workloads
        "sweep.slice_busy_s": 0.0,
        **span_summary["metrics"],
    }
    return {"metrics": layers, "foreign_trace_ids": len(foreign),
            "engine_runs": span_summary["engine_runs"],
            "traced_requests": len(span_summary["trace_ids"]),
            "spans": span_summary["spans"]}


# ----------------------------------------------------------------------
# capacity: the highest offered rate that meets the p99 limit
# ----------------------------------------------------------------------

def _meets_limit(samples, limit_ms: float) -> bool:
    """Nothing failed, p99 (supported) within the limit, and the backlog
    did not grow: the last quarter's median latency is under twice the
    first quarter's."""
    latencies = [s["from_due"] * 1e3 for s in samples]
    p99 = tail_quantile(latencies, 0.99)
    quarter = max(1, len(latencies) // 4)
    growing = (quantile(latencies[-quarter:], 0.5)
               > 2 * quantile(latencies[:quarter], 0.5))
    return (p99 is not None and p99 <= limit_ms and not growing
            and all(s["ok"] for s in samples))


async def _capacity(port: int, workload: str, cfg: dict, seed: int,
                    pid: int, base_passed: bool) -> dict:
    """Step the offered rate up from the workload's rate (measured by the
    main window) until a step misses the limit; each step runs long
    enough for a supported p99 (1000+ samples)."""
    steps = [{"rate": cfg["rate"], "passed": base_passed}]
    best = cfg["rate"] if base_passed else None
    for factor in (1.5, 2, 3, 4, 6, 8, 12, 16):
        if not steps[-1]["passed"]:
            break
        rate = cfg["rate"] * factor
        duration = max(2.0, 1100.0 / rate)
        offsets = poisson_schedule(rate, duration,
                                   _schedule_seed(workload, seed) + factor)
        plan = plan_requests(workload, cfg, seed * 1000 + int(factor * 10),
                             len(offsets))
        samples = (await _drive(port, plan, offsets, cfg, pid)).samples
        passed = _meets_limit(samples, cfg["p99_limit_ms"])
        steps.append({"rate": rate, "passed": passed})
        if passed:
            best = rate
    return {"capacity_rps": best, "steps": steps}
