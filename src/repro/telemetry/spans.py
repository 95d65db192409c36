"""Span tracer for the simulated stack.

A :class:`Tracer` collects *spans* — named intervals on a (process,
track) pair — plus point-in-time *instant* events.  Two clock domains
coexist:

* **sim-time** spans are recorded retroactively with explicit start/end
  timestamps in simulated seconds (:meth:`Tracer.add_span`), which is
  how the discrete-event schedulers report their placements;
* **wall-clock** spans wrap real work with the :meth:`Tracer.span`
  context manager, timed against the tracer's own monotonic epoch —
  used by the functional datapath.

Instrumented code takes an *optional* ``tracer=`` argument, and a
simulation result never depends on whether one is given.  The
orchestrator's placement loop does not touch the tracer at all: it
appends a plain-tuple row per task to a placement log, and its spans are
derived from that log after the loop.  Other simulators guard their
calls with ``if tracer is not None``, so a disabled tracer costs one
pointer comparison.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Clock-domain labels stored on every span.
SIM_CLOCK = "sim"
WALL_CLOCK = "wall"


@dataclass
class Span:
    """One named interval on a (pid, tid) track.

    Timestamps are seconds (simulated or wall, per ``clock``); ``end``
    is ``None`` while a wall-clock span is still open.
    """

    name: str
    start: float
    end: Optional[float]
    pid: str = "sim"
    tid: str = "main"
    category: str = "span"
    clock: str = SIM_CLOCK
    args: Dict[str, object] = field(default_factory=dict)
    span_id: int = 0
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass(frozen=True)
class Instant:
    """A point event (fault injected, retry fired, failure detected)."""

    name: str
    ts: float
    pid: str = "sim"
    tid: str = "main"
    category: str = "event"
    args: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Collects spans and instant events from an instrumented run.

    The tracer itself is clock-agnostic: sim-time spans carry whatever
    timestamps the simulator computed, wall-clock spans are measured
    from the tracer's construction instant.  Export to Chrome-trace /
    Perfetto JSON lives in :mod:`repro.telemetry.export`.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._next_id = 1
        self._open: List[Span] = []

    # -- clock ----------------------------------------------------------

    def now(self) -> float:
        """Wall-clock seconds since this tracer was created."""
        return time.perf_counter() - self._epoch

    # -- sim-time spans --------------------------------------------------

    def add_span(self, name: str, start: float, end: float, *,
                 pid: str = "sim", tid: str = "main",
                 category: str = "span", clock: str = SIM_CLOCK,
                 parent: Optional[Span] = None, **args: object) -> Span:
        """Record a finished span with explicit timestamps.

        Args:
            name: span label (task, segment, or batch name).
            start: start time in seconds.
            end: end time in seconds; must be >= ``start``.
            pid: process-level grouping (e.g. ``instance0``).
            tid: track within the process (a resource timeline name).
            category: coarse class used for coloring/filtering.
            clock: :data:`SIM_CLOCK` or :data:`WALL_CLOCK`.
            parent: optional enclosing span.
            **args: free-form attributes attached to the span.
        """
        if math.isnan(start) or math.isnan(end):
            # NaN compares false against everything, so it would sail
            # through the ordering check below and poison every export
            # and critical-path chain downstream.
            raise ValueError(f"span '{name}' has NaN timestamps "
                             f"({start}, {end})")
        if end < start:
            raise ValueError(f"span '{name}' ends ({end}) before it "
                             f"starts ({start})")
        span = Span(name=name, start=start, end=end, pid=pid, tid=tid,
                    category=category, clock=clock, args=dict(args),
                    span_id=self._next_id,
                    parent_id=parent.span_id if parent else None)
        self._next_id += 1
        self.spans.append(span)
        return span

    def instant(self, name: str, ts: float, *, pid: str = "sim",
                tid: str = "main", category: str = "event",
                **args: object) -> Instant:
        """Record a point event at ``ts`` seconds."""
        if math.isnan(ts):
            raise ValueError(f"instant '{name}' has a NaN timestamp")
        event = Instant(name=name, ts=ts, pid=pid, tid=tid,
                        category=category, args=dict(args))
        self.instants.append(event)
        return event

    # -- wall-clock spans ------------------------------------------------

    @contextmanager
    def span(self, name: str, *, pid: str = "functional",
             tid: str = "main", category: str = "span",
             **args: object) -> Iterator[Span]:
        """Open a wall-clock span around a block of real work.

        Nested ``with`` blocks are linked through ``parent_id``; the
        yielded span's ``args`` may be updated inside the block (e.g.
        with tile counts known only at the end).
        """
        span = Span(name=name, start=self.now(), end=None, pid=pid,
                    tid=tid, category=category, clock=WALL_CLOCK,
                    args=dict(args), span_id=self._next_id,
                    parent_id=(self._open[-1].span_id
                               if self._open else None))
        self._next_id += 1
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = self.now()

    # -- inspection ------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """All closed spans, in deterministic analytics order.

        Stable-sorted by ``(start, pid, tid, name)`` so exports, trace
        diffs, and critical-path extraction are reproducible run to run
        regardless of the (scheduler-dependent) recording order; ties
        keep recording order.
        """
        return sorted(
            (span for span in self.spans if span.end is not None),
            key=lambda span: (span.start, span.pid, span.tid, span.name))

    def spans_on(self, pid: Optional[str] = None,
                 tid: Optional[str] = None,
                 category: Optional[str] = None) -> List[Span]:
        """Closed spans filtered by process / track / category."""
        return [span for span in self.finished_spans()
                if (pid is None or span.pid == pid)
                and (tid is None or span.tid == tid)
                and (category is None or span.category == category)]

    def tracks(self) -> List[Tuple[str, str]]:
        """Distinct (pid, tid) pairs in first-appearance order."""
        seen: Dict[Tuple[str, str], None] = {}
        for span in self.spans:
            seen.setdefault((span.pid, span.tid), None)
        for event in self.instants:
            seen.setdefault((event.pid, event.tid), None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.spans)
