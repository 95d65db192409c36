"""Shape-keyed memoization caches for traces and schedules.

The expensive artifacts of the simulated stack are pure functions of a
small amount of configuration: a traced dataflow graph depends only on
``(model_config, batch, seq_len)``, and a :class:`ScheduleResult` only on
the trace key plus ``(hardware_config, link, host)`` and the orchestrator
knobs.  This module derives stable content hashes from those inputs and
stores the artifacts in per-process LRU caches with an optional on-disk
layer, so a 200-point DSE sweep traces the model once instead of 200
times and a warm re-run skips the cycle-level scheduler entirely.

Disk layer: set the ``REPRO_CACHE_DIR`` environment variable (or call
:func:`configure`) to a directory path; entries are pickled under
``<dir>/<cache>/<key>.pkl`` and survive across processes and runs.
Delete the directory (or call ``clear_caches(disk=True)``) to clear it.
Keys embed :data:`CACHE_VERSION`; bump it when an artifact's layout
changes so stale disk entries miss instead of deserializing garbage.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

#: Environment variable selecting the on-disk cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Bump when cached artifact layouts change (invalidates disk entries).
CACHE_VERSION = 1

#: Default in-memory capacities (entries, not bytes).
DEFAULT_TRACE_CAPACITY = 128
DEFAULT_SCHEDULE_CAPACITY = 1024


# ---------------------------------------------------------------------------
# Content hashing


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic, hash-stable structure.

    Dataclasses become (qualname, field tuples), enums (qualname, value),
    floats their exact ``repr`` round-trip.  Unknown types raise rather
    than keying on ``id()``-dependent reprs.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,
                tuple((f.name, _canonical(getattr(obj, f.name)))
                      for f in dataclasses.fields(obj)))
    if isinstance(obj, enum.Enum):
        return (type(obj).__qualname__, _canonical(obj.value))
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        return tuple(_canonical(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(item)) for item in obj)))
    if isinstance(obj, dict):
        return ("dict", tuple(sorted(
            (repr(_canonical(k)), _canonical(v)) for k, v in obj.items())))
    raise TypeError(
        f"cannot derive a cache key from {type(obj).__qualname__}")


def content_hash(obj: Any) -> str:
    """Stable hex digest of ``obj``'s canonical form (PYTHONHASHSEED-free)."""
    payload = repr(_canonical(obj)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:32]


def trace_key(model_config: Any, batch: int, seq_len: int,
              with_mask: bool = False) -> str:
    """Cache key for one traced dataflow graph."""
    return content_hash(("trace", CACHE_VERSION, model_config,
                         int(batch), int(seq_len), bool(with_mask)))


def schedule_key(trace: str, hardware: Any, host: Any,
                 threads: Optional[int] = None,
                 contention_coefficient: Optional[float] = None,
                 dispatch_overhead: Optional[float] = None) -> str:
    """Cache key for one scheduled run of a traced workload.

    ``hardware`` embeds its link and lane partition, so any change to the
    operating point changes the key.
    """
    return content_hash(("schedule", CACHE_VERSION, trace, hardware, host,
                         threads, contention_coefficient,
                         dispatch_overhead))


# ---------------------------------------------------------------------------
# Cache implementation


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (memory and disk layers)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0

    def delta(self, before: Optional["CacheStats"] = None) -> "CacheStats":
        """Stats accumulated since ``before`` (or since construction)."""
        if before is None:
            return CacheStats(**dataclasses.asdict(self))
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            puts=self.puts - before.puts,
            evictions=self.evictions - before.evictions,
            disk_hits=self.disk_hits - before.disk_hits,
            disk_writes=self.disk_writes - before.disk_writes)

    def merge(self, other: "CacheStats") -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))


class ShapeCache:
    """Thread-safe LRU cache with an optional pickle-on-disk layer.

    Args:
        name: cache label (also the on-disk subdirectory name).
        capacity: in-memory entry limit; least-recently-used evict.
        disk_dir: directory for the persistent layer; None disables it.
        enabled: when False every lookup misses and every put is a no-op
            (the ``--no-cache`` escape hatch).
    """

    _MISSING = object()

    def __init__(self, name: str, capacity: int = 256,
                 disk_dir: Optional[Path] = None,
                 enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.enabled = enabled
        self._data: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    # -- core ------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        if not self.enabled:
            return default
        with self._lock:
            value = self._data.get(key, self._MISSING)
            if value is not self._MISSING:
                self._data.move_to_end(key)
                self._stats.hits += 1
                return value
        value = self._disk_read(key)
        if value is not self._MISSING:
            with self._lock:
                self._stats.hits += 1
                self._stats.disk_hits += 1
                self._insert(key, value)
            return value
        with self._lock:
            self._stats.misses += 1
        return default

    def put(self, key: str, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._stats.puts += 1
            self._insert(key, value)
        self._disk_write(key, value)

    def _insert(self, key: str, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self._stats.evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self, disk: bool = False) -> None:
        """Drop every entry and reset the counters (disk layer on request)."""
        with self._lock:
            self._data.clear()
            self._stats = CacheStats()
        if disk and self.disk_dir is not None:
            directory = self.disk_dir / self.name
            if directory.is_dir():
                for path in directory.glob("*.pkl"):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the hit/miss counters."""
        with self._lock:
            return self._stats.delta()

    # -- disk layer ------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / self.name / f"{key}.pkl"

    def _disk_read(self, key: str) -> Any:
        path = self._disk_path(key)
        if path is None or not path.is_file():
            return self._MISSING
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            # Corrupt or incompatible entry: treat as a miss and drop it.
            try:
                path.unlink()
            except OSError:
                pass
            return self._MISSING

    def _disk_write(self, key: str, value: Any) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        except (OSError, pickle.PicklingError):
            return
        with self._lock:
            self._stats.disk_writes += 1


# ---------------------------------------------------------------------------
# Process-global caches

_UNSET = object()
_state: Dict[str, Any] = {"disk_dir": _UNSET, "enabled": True}
_caches: Dict[str, ShapeCache] = {}
_registry_lock = threading.Lock()


def _resolve_disk_dir() -> Optional[Path]:
    if _state["disk_dir"] is _UNSET:
        env = os.environ.get(ENV_CACHE_DIR, "").strip()
        _state["disk_dir"] = Path(env) if env else None
    return _state["disk_dir"]


def get_cache(name: str, capacity: int = 256) -> ShapeCache:
    """The process-global cache registered under ``name`` (created lazily)."""
    with _registry_lock:
        cache = _caches.get(name)
        if cache is None:
            cache = ShapeCache(name, capacity=capacity,
                               disk_dir=_resolve_disk_dir(),
                               enabled=_state["enabled"])
            _caches[name] = cache
        return cache


def trace_cache() -> ShapeCache:
    """Cache of traced :class:`~repro.dataflow.graph.DataflowGraph`s."""
    return get_cache("trace", DEFAULT_TRACE_CAPACITY)


def schedule_cache() -> ShapeCache:
    """Cache of :class:`~repro.sched.orchestrator.ScheduleResult`s."""
    return get_cache("schedule", DEFAULT_SCHEDULE_CAPACITY)


def configure(disk_dir: Any = _UNSET, enabled: Any = _UNSET) -> None:
    """Reconfigure the global caches.

    Args:
        disk_dir: on-disk layer directory; ``None`` disables persistence,
            omitted keeps the current setting (default: ``REPRO_CACHE_DIR``).
        enabled: False short-circuits every cache to pass-through.
    """
    with _registry_lock:
        if disk_dir is not _UNSET:
            _state["disk_dir"] = (Path(disk_dir) if disk_dir is not None
                                  else None)
            for cache in _caches.values():
                cache.disk_dir = _state["disk_dir"]
        if enabled is not _UNSET:
            _state["enabled"] = bool(enabled)
            for cache in _caches.values():
                cache.enabled = _state["enabled"]


def clear_caches(disk: bool = False) -> None:
    """Empty every registered cache (and its disk layer when asked)."""
    with _registry_lock:
        caches = list(_caches.values())
    for cache in caches:
        cache.clear(disk=disk)


def cache_stats() -> Dict[str, CacheStats]:
    """Snapshot of each registered cache's counters, keyed by cache name."""
    with _registry_lock:
        return {name: cache.stats for name, cache in _caches.items()}


def record_cache_metrics(metrics,
                         stats: Optional[Dict[str, CacheStats]] = None
                         ) -> None:
    """Write hit/miss counters into a telemetry ``MetricsRegistry``."""
    for name, snapshot in (stats or cache_stats()).items():
        metrics.counter(f"cache/{name}/hits").inc(snapshot.hits)
        metrics.counter(f"cache/{name}/misses").inc(snapshot.misses)
        metrics.counter(f"cache/{name}/disk_hits").inc(snapshot.disk_hits)
        metrics.counter(f"cache/{name}/evictions").inc(snapshot.evictions)
