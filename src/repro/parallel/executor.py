"""Process-pool fan-out for independent sweep evaluations.

:class:`SweepExecutor` maps a picklable function over a work list.  With
``workers=1`` it runs the exact serial loop the callers used before this
module existed — same call order, same results, no pickling — so serial
runs stay bit-identical.  With ``workers>1`` it fans out over a
``ProcessPoolExecutor`` (fork start method where available, so workers
inherit warm in-memory caches) and reassembles results in input order,
making the output independent of worker count and completion order.

Telemetry: when given a tracer, every task becomes a wall-clock span on
its worker's track; when given a metrics registry, task counts, wall
time, and the cache hit/miss deltas observed inside the workers are
accumulated as counters/gauges.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..telemetry.spans import WALL_CLOCK, Tracer
from .cache import CacheStats, cache_stats

#: Environment variable supplying a default worker count.
ENV_WORKERS = "REPRO_SWEEP_WORKERS"


@dataclass
class _TaskResult:
    """One completed task: its value plus worker/timing/cache accounting."""

    index: int
    pid: int
    start: float
    end: float
    value: Any
    cache_delta: Dict[str, CacheStats] = field(default_factory=dict)


def _invoke(fn: Callable[[Any], Any], index: int, item: Any) -> _TaskResult:
    """Run one task, measuring wall time and cache-counter deltas.

    Module-level so it pickles into worker processes; the perf_counter
    stamps share CLOCK_MONOTONIC with the parent on POSIX, letting the
    parent place spans on a common wall clock.
    """
    before = cache_stats()
    start = time.perf_counter()
    value = fn(item)
    end = time.perf_counter()
    delta = {name: stats.delta(before.get(name))
             for name, stats in cache_stats().items()}
    return _TaskResult(index=index, pid=os.getpid(), start=start, end=end,
                       value=value, cache_delta=delta)


class SweepExecutor:
    """Fans independent evaluations out over worker processes.

    Args:
        workers: process count; 1 (the default) is the serial fast path.

    Attributes:
        last_mode: how the most recent :meth:`map` actually ran —
            ``"serial"``, ``"process"``, or ``"serial-fallback"`` when
            pool creation failed (e.g. a sandbox without fork).
        last_cache_stats: cache hit/miss deltas observed inside the
            tasks of the most recent :meth:`map`, merged across workers.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self.last_mode = "serial"
        self.last_cache_stats: Dict[str, CacheStats] = {}

    @staticmethod
    def resolve_workers(workers: Optional[int] = None) -> int:
        """An explicit count, else ``REPRO_SWEEP_WORKERS``, else 1."""
        if workers is not None:
            return max(1, int(workers))
        env = os.environ.get(ENV_WORKERS, "").strip()
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                return 1
        return 1

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any], *,
            tracer: Optional[Tracer] = None,
            metrics=None, label: str = "sweep") -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        Args:
            fn: picklable callable (module-level function or a
                ``functools.partial`` of one) applied to each item.
            items: the work list; fully materialized before dispatch.
            tracer: optional span tracer (one wall-clock span per task on
                a per-worker track, plus a summary span).
            metrics: optional ``MetricsRegistry`` for task counters and
                cache hit/miss deltas.
            label: track/metric prefix for this sweep.

        Raises:
            whatever ``fn`` raises, re-raised in the parent.
        """
        work = list(items)
        base = time.perf_counter()
        if self.workers == 1 or len(work) <= 1:
            self.last_mode = "serial"
            records = [_invoke(fn, index, item)
                       for index, item in enumerate(work)]
        else:
            records = self._map_processes(fn, work)
        records.sort(key=lambda record: record.index)
        elapsed = time.perf_counter() - base
        self._record_telemetry(records, base, elapsed, tracer, metrics,
                               label)
        return [record.value for record in records]

    # ------------------------------------------------------------------

    def _map_processes(self, fn: Callable[[Any], Any],
                       work: List[Any]) -> List[_TaskResult]:
        try:
            methods = multiprocessing.get_all_start_methods()
            context = (multiprocessing.get_context("fork")
                       if "fork" in methods else None)
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(work)),
                mp_context=context)
        except (OSError, PermissionError, ValueError):
            # No usable process pool (restricted sandbox): stay correct.
            self.last_mode = "serial-fallback"
            return [_invoke(fn, index, item)
                    for index, item in enumerate(work)]
        self.last_mode = "process"
        with pool:
            futures = [pool.submit(_invoke, fn, index, item)
                       for index, item in enumerate(work)]
            return [future.result() for future in futures]

    def _record_telemetry(self, records: List[_TaskResult], base: float,
                          elapsed: float, tracer: Optional[Tracer],
                          metrics, label: str) -> None:
        merged: Dict[str, CacheStats] = {}
        for record in records:
            for name, delta in record.cache_delta.items():
                merged.setdefault(name, CacheStats()).merge(delta)
        self.last_cache_stats = merged
        if tracer is not None:
            workers = sorted({record.pid for record in records})
            for record in records:
                start = max(0.0, record.start - base)
                end = max(start, record.end - base)
                tracer.add_span(f"{label}[{record.index}]", start, end,
                                pid=label, tid=f"worker:{record.pid}",
                                category="sweep", clock=WALL_CLOCK,
                                index=record.index, mode=self.last_mode)
            tracer.add_span(f"{label}.map", 0.0, elapsed, pid=label,
                            tid="executor", category="sweep",
                            clock=WALL_CLOCK, tasks=len(records),
                            workers=len(workers), mode=self.last_mode)
        if metrics is not None:
            metrics.counter(f"parallel/{label}/tasks").inc(len(records))
            metrics.gauge(f"parallel/{label}/wall_seconds").set(elapsed)
            metrics.gauge(f"parallel/{label}/workers").set(
                len({record.pid for record in records}))
            for name, delta in merged.items():
                metrics.counter(f"cache/{name}/hits").inc(delta.hits)
                metrics.counter(f"cache/{name}/misses").inc(delta.misses)
