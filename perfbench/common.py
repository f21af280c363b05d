"""Shared plumbing: paths, the run's wall-clock watchdog, and stamps."""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch files of one run (span dumps, child logs); gitignored
RUN_DIR = ROOT / ".perfbench_run"


def load_config() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def program_env() -> dict:
    """Environment for the program's processes: the checkout's sources
    first on the path, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def read_steal() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks since boot, over all CPUs."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def git_sha() -> str:
    """The commit under test, or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(workload: str, seed: int, trace: int) -> dict:
    """The provenance every result record carries."""
    import numpy

    from repro.engine.cache import machine_fingerprint

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine_fingerprint": machine_fingerprint(),
    }


def kill_group(process) -> None:
    """Kill a child started in its own process group together with any
    processes it spawned, and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        process.wait(5)
    except subprocess.TimeoutExpired:
        pass


#: one of these per CPU keeps the CPUs from going idle while a run
#: measures; under SCHED_IDLE it runs only when nothing else wants the CPU
_SPINNER = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


def keep_awake(watchdog) -> None:
    """Idle-priority busy loops, one per CPU, for the length of a run.

    On a virtual machine an idle virtual CPU is handed back to the host,
    and waking it again costs the host's scheduling delay — milliseconds
    when the host is busy.  That delay, not the program, would then set
    the latency of millisecond requests and swing it run to run.  The
    loops never delay the program: a SCHED_IDLE task yields the CPU the
    moment any normal task can run.  They share the benchmark's session,
    so the kernel's per-session scheduling groups do not give them a
    share of their own.  The watchdog stops them with the run.
    """
    for _ in range(nproc()):
        watchdog.adopt(subprocess.Popen([sys.executable, "-c", _SPINNER],
                                        process_group=0))


class Watchdog:
    """Hard wall-clock bounds: one for the whole run, one per phase.

    When a bound passes, every adopted child process is killed, the
    stalled phase is named on stderr, and the process exits with code
    3 — a stalled run is a failed run, never retried.  :meth:`stop` also
    kills whatever adopted process is still running, so an error part
    way through a run leaves nothing behind.
    """

    EXIT_CODE = 3

    def __init__(self, total_seconds: float) -> None:
        self.deadline = time.monotonic() + total_seconds
        self.phase_name = "start"
        self.phase_deadline = self.deadline
        self.children: list = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def phase(self, name: str, bound: float) -> None:
        with self._lock:
            self.phase_name = name
            self.phase_deadline = min(self.deadline, time.monotonic() + bound)

    def adopt(self, process) -> None:
        with self._lock:
            self.children.append(process)

    def release(self, process) -> None:
        with self._lock:
            if process in self.children:
                self.children.remove(process)

    def _watch(self) -> None:
        while not self._stop.wait(0.2):
            with self._lock:
                expired = time.monotonic() > self.phase_deadline
                phase = self.phase_name
                children = list(self.children)
            if expired:
                for child in children:
                    kill_group(child)
                sys.stderr.write(
                    f"perfbench: FAILED, stalled in phase {phase!r}"
                    " (wall-clock bound passed)\n"
                )
                sys.stderr.flush()
                os._exit(self.EXIT_CODE)

    def stop(self) -> None:
        self._stop.set()
        with self._lock:
            children, self.children = self.children, []
        for child in children:
            kill_group(child)
