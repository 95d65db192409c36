"""Memoized entry points for tracing and scheduling.

Thin wrappers that route :func:`repro.dataflow.builder.build_graph_for`
and :meth:`repro.sched.orchestrator.Orchestrator.run` through the global
shape-keyed caches.  Both functions are deterministic, so a cached value
is bit-identical to a fresh computation; callers that need telemetry
spans from inside the scheduler should keep calling the orchestrator
directly (spans are a side effect the cache cannot replay).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..dataflow.builder import build_graph_for
from ..dataflow.graph import DataflowGraph
from .cache import schedule_cache, schedule_key, trace_cache, trace_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..arch.config import HardwareConfig
    from ..model.config import BertConfig
    from ..sched.host import HostModel
    from ..sched.orchestrator import ScheduleResult


def cached_build_graph(config: "BertConfig", batch: int, seq_len: int,
                       with_mask: bool = False) -> DataflowGraph:
    """Trace a workload once per process.

    The graph is immutable (frozen dataclass nodes), so sharing one
    instance across orchestrator runs is safe.
    """
    cache = trace_cache()
    key = trace_key(config, batch, seq_len, with_mask)
    graph = cache.get(key)
    if graph is None:
        graph = build_graph_for(config, batch=batch, seq_len=seq_len,
                                with_mask=with_mask)
        cache.put(key, graph)
    return graph


def cached_schedule(hardware: "HardwareConfig", model_config: "BertConfig",
                    batch: int, seq_len: int,
                    host: Optional["HostModel"] = None) -> "ScheduleResult":
    """Simulate one batched inference, memoized on its full shape key.

    The key covers the workload (via :func:`trace_key`), the hardware
    configuration (which embeds its link, lane partition and thread
    count) and the host model, so any change to the operating point
    misses rather than returning a stale schedule.
    """
    from ..sched.host import HostModel
    from ..sched.orchestrator import Orchestrator

    host = host or HostModel()
    cache = schedule_cache()
    key = schedule_key(trace_key(model_config, batch, seq_len), hardware,
                       host)
    result = cache.get(key)
    if result is None:
        result = Orchestrator(hardware, host=host).run(
            model_config, batch=batch, seq_len=seq_len)
        cache.put(key, result)
    return result
