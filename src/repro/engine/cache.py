"""Content-addressed result cache: LRU memory tier + JSONL disk tier.

Keys are SHA-256 digests of the canonical task spec *plus* the
environment fingerprint (code version, Python version, platform), so a
cached result is served only when the same code on the same kind of
machine would recompute the same bits.  Anything that could change a
result must be in the key; anything that couldn't (worker count,
batch size, telemetry) must not be — that is what makes repeated
oracle/lint/study runs incremental across processes and sessions.

Tiers:

- **memory**: an ``OrderedDict`` LRU holding the most recent
  ``capacity`` results, always on;
- **disk** (optional): an append-only JSONL file, one
  ``{"key", "task", "result"}`` record per line.  The file is indexed
  by byte offset on first touch and appended on every put, so a
  process inherits every previous run's results for free.  Duplicate
  keys are harmless (last record wins), which keeps writes lock-free
  for the single-writer engine.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import platform
from pathlib import Path
from typing import Any

from repro._version import __version__

__all__ = [
    "MISS",
    "CacheStats",
    "ResultCache",
    "cache_key",
    "machine_fingerprint",
    "default_cache_path",
]

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


def machine_fingerprint() -> dict[str, str]:
    """The environment facts a result's bits may legitimately depend on."""
    return {
        "code_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.system(),
        "machine": platform.machine(),
    }


def cache_key(spec_canonical: str, seed: int) -> str:
    """The content address of one shard's result."""
    payload = json.dumps(
        {
            "spec": spec_canonical,
            "seed": seed,
            "env": machine_fingerprint(),
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def default_cache_path() -> Path:
    """Where the CLI's disk tier lives unless overridden.

    ``REPRO_ENGINE_CACHE`` wins; otherwise the XDG cache home.
    """
    override = os.environ.get("REPRO_ENGINE_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-fp" / "engine-cache.jsonl"


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance's lifetime."""

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: disk lines that did not parse as a record (a write torn by a
    #: killed run), skipped when the disk tier is indexed
    torn_lines: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return (self.hits + self.disk_hits) / lookups if lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "torn_lines": self.torn_lines,
            "hit_rate": round(self.hit_rate, 4),
        }


class ResultCache:
    """Two-tier cache for shard results (JSON-able values only)."""

    def __init__(self, capacity: int = 512,
                 disk_path: str | Path | None = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.disk_path = Path(disk_path) if disk_path is not None else None
        self.stats = CacheStats()
        self._memory: collections.OrderedDict[str, Any] = \
            collections.OrderedDict()
        self._disk_index: dict[str, int] | None = None

    # -- memory tier ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def _remember(self, key: str, result: Any) -> None:
        memory = self._memory
        memory[key] = result
        memory.move_to_end(key)
        if len(memory) > self.capacity:
            memory.popitem(last=False)
            self.stats.evictions += 1

    # -- disk tier -----------------------------------------------------

    def _index_disk(self) -> dict[str, int]:
        """Byte offsets of each key's latest record (built once)."""
        if self._disk_index is None:
            index: dict[str, int] = {}
            if self.disk_path is not None and self.disk_path.exists():
                with open(self.disk_path, "rb") as handle:
                    offset = 0
                    for line in handle:
                        try:
                            record = json.loads(line)
                            index[record["key"]] = offset
                        except (ValueError, KeyError, TypeError):
                            self.stats.torn_lines += 1
                        offset += len(line)
            self._disk_index = index
        return self._disk_index

    def _disk_get(self, key: str) -> Any:
        index = self._index_disk()
        if self.disk_path is None or key not in index:
            return MISS
        try:
            with open(self.disk_path, "rb") as handle:
                handle.seek(index[key])
                record = json.loads(handle.readline())
        except (OSError, ValueError, KeyError):
            return MISS
        return record.get("result")

    @property
    def disk_entries(self) -> int:
        return len(self._index_disk()) if self.disk_path is not None else 0

    # -- public API ----------------------------------------------------

    def get(self, key: str) -> Any:
        """The cached result for ``key``, or :data:`MISS`."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return self._memory[key]
        result = self._disk_get(key)
        if result is not MISS:
            self.stats.disk_hits += 1
            self._remember(key, result)
            return result
        self.stats.misses += 1
        return MISS

    def put(self, key: str, task_name: str, result: Any) -> None:
        """Store a result in memory and (when configured) on disk."""
        self.stats.puts += 1
        self._remember(key, result)
        if self.disk_path is None:
            return
        index = self._index_disk()
        line = json.dumps(
            {"key": key, "task": task_name, "result": result},
            sort_keys=True, separators=(",", ":"), default=str,
        ) + "\n"
        self.disk_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.disk_path, "ab") as handle:
            offset = handle.tell()
            handle.write(line.encode())
        index[key] = offset

    def clear(self) -> None:
        """Drop both tiers (the disk file is truncated, not deleted)."""
        self._memory.clear()
        self._disk_index = {}
        if self.disk_path is not None and self.disk_path.exists():
            self.disk_path.write_text("")

    def describe(self) -> str:
        parts = [
            f"memory: {len(self)}/{self.capacity} entries",
            f"disk: {self.disk_entries} entries"
            + (f" at {self.disk_path}" if self.disk_path else " (off)"),
            f"stats: {self.stats.to_dict()}",
        ]
        return "\n".join(parts)
