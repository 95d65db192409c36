"""Figure 8 — multithreaded orchestration and scheduling.

Sweeps the software thread count (the paper illustrates 1/2/4/32 threads)
and reports batch throughput.  Claims to reproduce: throughput rises
steeply with threads as data-dependency bubbles fill in, then flattens —
with contention overhead growing — making ~32 threads the sweet spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..arch.config import HardwareConfig, best_perf
from ..model.config import BertConfig, protein_bert_base
from ..sched.orchestrator import Orchestrator

DEFAULT_THREAD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class ThreadPoint:
    """Throughput and contention at one thread count."""

    threads: int
    throughput: float
    makespan_seconds: float
    contention_seconds: float


@dataclass(frozen=True)
class Figure8Result:
    points: Tuple[ThreadPoint, ...]

    @property
    def best(self) -> ThreadPoint:
        return max(self.points, key=lambda p: p.throughput)


def run(config: Optional[BertConfig] = None,
        hardware: Optional[HardwareConfig] = None,
        thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
        batch: int = 128, seq_len: int = 512) -> Figure8Result:
    """Regenerate the thread-count sweep."""
    config = config or protein_bert_base()
    orchestrator = Orchestrator(hardware or best_perf())
    points: List[ThreadPoint] = []
    for threads in thread_counts:
        schedule = orchestrator.run(config, batch=batch, seq_len=seq_len,
                                    threads=threads)
        points.append(ThreadPoint(
            threads=threads,
            throughput=schedule.throughput,
            makespan_seconds=schedule.makespan_seconds,
            contention_seconds=schedule.contention_seconds))
    return Figure8Result(points=tuple(points))


def format_result(result: Figure8Result) -> str:
    lines = [f"{'threads':>8s} {'inf/s':>9s} {'makespan ms':>12s} "
             f"{'contention ms':>14s}"]
    for point in result.points:
        lines.append(f"{point.threads:8d} {point.throughput:9.1f} "
                     f"{point.makespan_seconds * 1e3:12.1f} "
                     f"{point.contention_seconds * 1e3:14.2f}")
    lines.append(f"best thread count: {result.best.threads}")
    return "\n".join(lines)
