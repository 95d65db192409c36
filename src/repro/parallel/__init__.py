"""Parallel sweep execution and shape-keyed memoization.

Two cooperating pieces:

* :class:`SweepExecutor` — fans independent evaluations (DSE points,
  experiment artifacts, fault-rate campaigns) out over a process pool;
  ``workers=1`` is the bit-identical serial path, and results always
  come back in input order regardless of worker count.
* the shape-keyed caches (:mod:`repro.parallel.cache`) — per-process
  in-memory LRUs holding traced dataflow graphs keyed by
  ``(model_config, batch, seq_len, with_mask)`` and schedules keyed by
  ``(trace_key, hardware_config, host)``, all compared by value.
"""

from .cache import (
    CacheStats,
    ShapeCache,
    cache_stats,
    clear_caches,
    record_cache_metrics,
    schedule_cache,
    schedule_key,
    trace_cache,
    trace_key,
)
from .executor import ENV_WORKERS, SweepExecutor
from .memo import cached_build_graph, cached_schedule

__all__ = [
    "CacheStats",
    "ENV_WORKERS",
    "ShapeCache",
    "SweepExecutor",
    "cache_stats",
    "cached_build_graph",
    "cached_schedule",
    "clear_caches",
    "record_cache_metrics",
    "schedule_cache",
    "schedule_key",
    "trace_cache",
    "trace_key",
]
