"""Shape-keyed memoization caches for traces and schedules.

The expensive artifacts of the simulated stack are pure functions of a
small amount of configuration: a traced dataflow graph depends only on
``(model_config, batch, seq_len, with_mask)``, and a :class:`ScheduleResult`
only on that trace key plus ``(hardware_config, host)``.  Those configs are
frozen dataclasses that hash and compare by value, so a tuple of them is
an exact key.  The artifacts live in two per-process LRU caches, so a
200-point DSE sweep traces the model once instead of 200 times and a warm
re-run skips the cycle-level scheduler entirely.  Every process starts
with empty caches; forked sweep workers inherit the parent's entries.

Every leaf of a key must hash by value (frozen dataclasses, enums, tuples,
str/int/float/bool/None): a mutable component fails loudly with
``TypeError``, but an identity-hashed one would silently key on ``id()``.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple


def trace_key(model_config: Any, batch: int, seq_len: int,
              with_mask: bool = False) -> Tuple:
    """Cache key for one traced dataflow graph."""
    return (model_config, int(batch), int(seq_len), bool(with_mask))


def schedule_key(trace: Tuple, hardware: Any, host: Any) -> Tuple:
    """Cache key for one scheduled run of a traced workload.

    ``hardware`` embeds its link, lane partition and thread count, so any
    change to the operating point changes the key.
    """
    return (trace, hardware, host)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def delta(self, before: Optional["CacheStats"] = None) -> "CacheStats":
        """Stats accumulated since ``before`` (or since construction)."""
        if before is None:
            return dataclasses.replace(self)
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            puts=self.puts - before.puts,
            evictions=self.evictions - before.evictions)

    def merge(self, other: "CacheStats") -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))


class ShapeCache:
    """Thread-safe in-memory LRU cache.

    Args:
        name: cache label (the key of :func:`cache_stats`).
        capacity: entry limit; least-recently-used entries evict.
    """

    _MISSING = object()

    def __init__(self, name: str, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, self._MISSING)
            if value is self._MISSING:
                self._stats.misses += 1
                return default
            self._data.move_to_end(key)
            self._stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._stats.puts += 1
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._stats = CacheStats()

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the hit/miss counters."""
        with self._lock:
            return self._stats.delta()


_TRACE_CACHE = ShapeCache("trace", capacity=128)
_SCHEDULE_CACHE = ShapeCache("schedule", capacity=1024)
_CACHES = (_TRACE_CACHE, _SCHEDULE_CACHE)


def trace_cache() -> ShapeCache:
    """Cache of traced :class:`~repro.dataflow.graph.DataflowGraph`s."""
    return _TRACE_CACHE


def schedule_cache() -> ShapeCache:
    """Cache of :class:`~repro.sched.orchestrator.ScheduleResult`s."""
    return _SCHEDULE_CACHE


def clear_caches() -> None:
    """Empty both caches and reset their counters."""
    for cache in _CACHES:
        cache.clear()


def cache_stats() -> Dict[str, CacheStats]:
    """Snapshot of each cache's counters, keyed by cache name."""
    return {cache.name: cache.stats for cache in _CACHES}


def record_cache_metrics(metrics,
                         stats: Optional[Dict[str, CacheStats]] = None
                         ) -> None:
    """Write hit/miss counters into a telemetry ``MetricsRegistry``."""
    for name, snapshot in (stats or cache_stats()).items():
        metrics.counter(f"cache/{name}/hits").inc(snapshot.hits)
        metrics.counter(f"cache/{name}/misses").inc(snapshot.misses)
        metrics.counter(f"cache/{name}/evictions").inc(snapshot.evictions)
