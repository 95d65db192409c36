"""The scheduler's resource timelines before the flat placement kernel.

:class:`repro.sched.orchestrator.Orchestrator` places work on plain
per-resource interval lists: one gap scan (``_fit``) and one coalescing
insert (``_reserve``).  They were flattened from the classes here: a
single-server :class:`Timeline` with O(1) append and gapless fast paths,
the fused (channel, array) joint fit :func:`reserve_pair2`, and the
multi-server :class:`Pool`.  Below those sit the straightforward paths
*they* were optimized from: a fit is the earliest idle gap, a joint fit
is the fixed point of per-timeline fits, and a pool picks the server
with the earliest fit.  All of them are kept as parity references.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class Timeline:
    """A single-server resource holding sorted, disjoint busy intervals."""

    name: str
    _starts: List[float] = field(default_factory=list, repr=False)
    _ends: List[float] = field(default_factory=list, repr=False)
    busy_seconds: float = 0.0
    reservations: int = 0
    #: True while the busy intervals form one contiguous block (no interior
    #: idle gaps), which lets :meth:`next_fit` answer without scanning.
    #: Conservative: cleared whenever an insertion *may* create or sit next
    #: to a gap, never re-set.
    _gapless: bool = field(default=True, repr=False)
    #: Cached ``_ends[-1]`` (-inf while empty): the append fast path tests
    #: one float attribute instead of touching the interval lists.
    _last_end: float = field(default=float("-inf"), repr=False)

    def next_fit(self, earliest: float, duration: float) -> float:
        """Earliest start ≥ ``earliest`` with an idle gap of ``duration``."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        last = self._last_end
        if earliest >= last:
            # Empty timeline or past the last reservation: always free.
            return earliest
        ends = self._ends
        if self._gapless and duration > 0:
            # One contiguous busy block: the request either fits entirely
            # before it or starts when it drains.  (duration == 0 keeps the
            # general path: its legacy answer inside the block is the end
            # of the *containing* interval, not the block end.)
            if self._starts[0] - earliest >= duration:
                return earliest
            return last
        # Candidate gaps begin at `earliest` and after each busy interval.
        index = bisect_right(ends, earliest)
        candidate = earliest
        starts = self._starts
        count = len(starts)
        while index < count:
            if starts[index] - candidate >= duration:
                return candidate
            end = ends[index]
            if end > candidate:
                candidate = end
            index += 1
        return candidate

    def _insert(self, start: float, duration: float) -> Tuple[float, float]:
        """Record a reservation at an already-validated fit position.

        Callers must have obtained ``start`` from :meth:`next_fit` (or an
        equivalent joint fit) with the same ``duration``; no overlap check
        is repeated here.
        """
        end = start + duration
        self.reservations += 1
        if end <= start:
            # Zero-width reservations (including durations that underflow
            # against the start time) occupy nothing and would break the
            # sortedness of the interval lists on ties.
            return start, end
        last = self._last_end
        if start >= last:
            if start > last and self._ends:
                self._gapless = False   # idle gap before this interval
            self._starts.append(start)
            self._ends.append(end)
            self._last_end = end
        else:
            # Backfill into an interior gap; whether the gap is exactly
            # filled is not tracked, so conservatively drop the flag.  A
            # validated fit below ``_last_end`` always lands before the
            # final interval, so the cached last end is unchanged.
            self._gapless = False
            starts = self._starts
            index = bisect_left(starts, start)
            starts.insert(index, start)
            self._ends.insert(index, end)
        self.busy_seconds += duration
        return start, end

    def utilization(self, makespan: float) -> float:
        """Busy fraction of the timeline over ``makespan``."""
        return self.busy_seconds / makespan if makespan > 0 else 0.0


def reserve_pair2(earliest: float, first: "Timeline", first_duration: float,
                  second: "Timeline", second_duration: float) -> float:
    """Reserve two timelines from their common start; returns the start.

    The orchestrator's (channel, array) case: the start is the fixed point
    of alternating :meth:`Timeline.next_fit` calls, ``first`` then
    ``second``, each moving the candidate to its own earliest fit until
    neither moves it; both timelines are then reserved at that start.  The
    O(1) append/gapless fits of :meth:`Timeline.next_fit` are inlined
    (same branches, same float expressions); only a fragmented timeline
    falls back to the general scan.
    """
    if first_duration < 0 or second_duration < 0:
        raise ValueError("duration must be non-negative")
    candidate = earliest
    for _ in range(10000):
        last = first._last_end
        if candidate >= last:
            fit = candidate
        elif first._gapless and first_duration > 0:
            fit = (candidate
                   if first._starts[0] - candidate >= first_duration
                   else last)
        else:
            fit = first.next_fit(candidate, first_duration)
        moved = fit > candidate
        if moved:
            candidate = fit
        last = second._last_end
        if candidate >= last:
            fit = candidate
        elif second._gapless and second_duration > 0:
            fit = (candidate
                   if second._starts[0] - candidate >= second_duration
                   else last)
        else:
            fit = second.next_fit(candidate, second_duration)
        if fit > candidate:
            candidate = fit
            moved = True
        if not moved:
            first._insert(candidate, first_duration)
            second._insert(candidate, second_duration)
            return candidate
    raise RuntimeError("reserve_pair2 failed to converge")


@dataclass
class Pool:
    """A multi-server resource (e.g. host CPU slots)."""

    name: str
    servers: List[Timeline] = field(default_factory=list)

    @classmethod
    def with_servers(cls, name: str, count: int) -> "Pool":
        if count <= 0:
            raise ValueError("pool needs at least one server")
        return cls(name=name, servers=[
            Timeline(name=f"{name}[{i}]") for i in range(count)])

    def reserve_named(self, earliest: float,
                      duration: float) -> Tuple[float, float, str]:
        """Reserve on the server that can start the earliest; returns
        ``(start, end, server_name)``.

        The fit found during the min-scan is reserved directly; ties keep
        the first (lowest-index) server, matching ``min`` semantics.  A
        server that can start right at ``earliest`` ends the scan early:
        no fit can be smaller, and every earlier server fit strictly
        later, so it is exactly the first minimum.
        """
        best: Timeline = None  # type: ignore[assignment]
        best_fit = 0.0
        for server in self.servers:
            fit = server.next_fit(earliest, duration)
            if fit == earliest:
                best, best_fit = server, fit
                break
            if best is None or fit < best_fit:
                best, best_fit = server, fit
        start, end = best._insert(best_fit, duration)
        return start, end, best.name

    @property
    def busy_seconds(self) -> float:
        return sum(server.busy_seconds for server in self.servers)

    def utilization(self, makespan: float) -> float:
        if makespan <= 0:
            return 0.0
        return self.busy_seconds / (makespan * len(self.servers))


def legacy_next_fit(timeline: Timeline, earliest: float,
                    duration: float) -> float:
    """The pre-optimization ``next_fit``: unconditional bisect + gap scan.

    Kept verbatim as the parity reference for the gapless fast path."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    index = bisect_right(timeline._ends, earliest)
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
