"""Reference placement paths for :mod:`repro.sched.events`.

The orchestrator places work only through ``Timeline.next_fit`` +
``Timeline._insert``, the fused :func:`repro.sched.events.reserve_pair2`
and ``Pool.reserve_named``.  These are the straightforward paths those
were optimized from, kept as the parity references they are tested
against: a fit is the earliest idle gap, a joint fit is the fixed point
of per-timeline fits, and a pool picks the server with the earliest fit.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

from repro.sched.events import Pool, Timeline


def legacy_next_fit(timeline: Timeline, earliest: float,
                    duration: float) -> float:
    """The pre-optimization ``next_fit``: unconditional bisect + gap scan.

    Kept verbatim as the parity reference for the gapless fast path."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    index = bisect.bisect_right(timeline._ends, earliest)
    candidate = earliest
    starts, ends = timeline._starts, timeline._ends
    while index < len(starts):
        if starts[index] - candidate >= duration:
            return candidate
        candidate = max(candidate, ends[index])
        index += 1
    return candidate


def reserve(timeline: Timeline, earliest: float,
            duration: float) -> Tuple[float, float]:
    """Reserve the earliest feasible interval at or after ``earliest``."""
    return timeline._insert(timeline.next_fit(earliest, duration), duration)


def reserve_at(timeline: Timeline, start: float,
               duration: float) -> Tuple[float, float]:
    """Reserve exactly at ``start``; caller must have used next_fit."""
    if timeline.next_fit(start, duration) != start:
        raise ValueError(f"{timeline.name}: interval at {start} not free")
    return timeline._insert(start, duration)


def common_start(earliest: float, requests: List[Tuple[Timeline, float]]
                 ) -> float:
    """Earliest time at which every (timeline, duration) request fits.

    Used when a dataflow must hold its link channel and its systolic array
    from the same instant.
    """
    candidate = earliest
    for _ in range(10000):
        moved = False
        for timeline, duration in requests:
            fit = timeline.next_fit(candidate, duration)
            if fit > candidate:
                candidate = fit
                moved = True
        if not moved:
            return candidate
    raise RuntimeError("common_start failed to converge")


def pool_reserve(pool: Pool, earliest: float,
                 duration: float) -> Tuple[float, float]:
    """Reserve on the server that can start the earliest."""
    start, end, _name = pool.reserve_named(earliest, duration)
    return start, end
