"""Span tracer for the simulated stack.

A :class:`Tracer` collects *spans* — named intervals on a (process,
track) pair — plus point-in-time *instant* events.  Two clock domains
coexist:

* **sim-time** spans are recorded retroactively with explicit start/end
  timestamps in simulated seconds, which is how the discrete-event
  schedulers report their placements: one span at a time
  (:meth:`Tracer.add_span`), or many at once as parallel columns
  (:meth:`Tracer.add_spans`);
* **wall-clock** spans wrap real work with the :meth:`Tracer.span`
  context manager, timed against the tracer's own monotonic epoch —
  used by the functional datapath.

Spans recorded one at a time are :class:`Span` objects from the start.
Bulk rows stay columns (name, start, end, track index, category, args)
until someone iterates :attr:`Tracer.spans` (export, rendering, tests),
which builds their objects once; trace analytics read the columns
through :meth:`Tracer.sim_columns` and never build a ``Span`` per row.

Instrumented code takes an *optional* ``tracer=`` argument, and a
simulation result never depends on whether one is given.  The
orchestrator, fleet and serving loops never touch the tracer: each
records its run (a placement log, a fleet run log, one row per batch)
and builds its spans from that record after the loop.  The system
simulator, the sweep executor and the functional datapath guard their
calls with ``if tracer is not None``.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter, ge, itemgetter
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

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


class SpanColumns(NamedTuple):
    """Sim-time spans as parallel columns: index ``i`` of each is a span.

    ``tracks`` indexes ``labels``, the (pid, tid) pairs.  Rows may share
    an ``args`` dict: the columns only read it.
    """

    labels: List[Tuple[str, str]]
    ids: List[int]
    names: List[str]
    starts: List[float]
    ends: List[float]
    tracks: List[int]
    categories: List[str]
    args: List[Dict[str, object]]


def _no_rows(labels: List[Tuple[str, str]]) -> SpanColumns:
    return SpanColumns(labels, [], [], [], [], [], [], [])


def _check_span(name: str, start: float, end: float) -> None:
    """Reject non-finite or reversed timestamps."""
    if not (math.isfinite(start) and math.isfinite(end)):
        # NaN compares false against everything, so it would sail
        # through the ordering check below, and an infinite end turns
        # every duration, share and composition downstream into inf or
        # NaN.
        raise ValueError(f"span '{name}' has NaN or infinite timestamps "
                         f"({start}, {end})")
    if end < start:
        raise ValueError(f"span '{name}' ends ({end}) before it "
                         f"starts ({start})")


class Tracer:
    """Collects spans and instant events from an instrumented run.

    The tracer itself is clock-agnostic: sim-time spans carry whatever
    timestamps the simulator computed, wall-clock spans are measured
    from the tracer's construction instant.  Export to Chrome-trace /
    Perfetto JSON lives in :mod:`repro.telemetry.export`.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._spans: List[Span] = []
        self.instants: List[Instant] = []
        self._next_id = 1
        self._open: List[Span] = []
        #: Bulk rows not yet built into objects; their track table.
        self._bulk = _no_rows([])
        self._track_index: Dict[Tuple[str, str], int] = {}

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
            start: start time in seconds; finite.
            end: end time in seconds; finite and >= ``start``.
            pid: process-level grouping (e.g. ``instance0``).
            tid: track within the process (a resource timeline name).
            category: coarse class used for coloring/filtering.
            clock: :data:`SIM_CLOCK` or :data:`WALL_CLOCK`.
            parent: optional enclosing span.
            **args: free-form attributes attached to the span.
        """
        _check_span(name, start, end)
        span = Span(name=name, start=start, end=end, pid=pid, tid=tid,
                    category=category, clock=clock, args=dict(args),
                    span_id=self._next_id,
                    parent_id=parent.span_id if parent else None)
        self._next_id += 1
        self._spans.append(span)
        return span

    def track(self, pid: str, tid: str) -> int:
        """The index :meth:`add_spans` takes for the (pid, tid) track."""
        if (pid, tid) not in self._track_index:
            self._track_index[(pid, tid)] = len(self._bulk.labels)
            self._bulk.labels.append((pid, tid))
        return self._track_index[(pid, tid)]

    def add_spans(self, names: Sequence[str], starts: Sequence[float],
                  ends: Sequence[float], tracks: Sequence[int],
                  categories: Sequence[str],
                  args: Sequence[Dict[str, object]]) -> None:
        """Record finished sim-time spans in bulk, as parallel columns.

        Row ``i`` is the span ``add_span(names[i], starts[i], ends[i],
        category=categories[i], **args[i])`` on track ``tracks[i]`` (an
        index from :meth:`track`): the rows pass the same checks and get
        the span ids and recording order those calls would.  Rows may
        share one ``args`` dict; building a row's :class:`Span` copies it.
        """
        columns = (names, starts, ends, tracks, categories, args)
        count = len(names)
        if any(len(column) != count for column in columns):
            raise ValueError("add_spans columns differ in length")
        # One C-level pass in the common case: no NaN anywhere (it fails
        # `>=`), no reversed row, and finite extremes.
        if count and not (all(map(ge, ends, starts))
                          and math.isfinite(min(starts))
                          and math.isfinite(max(ends))):
            for row in range(count):
                _check_span(names[row], starts[row], ends[row])
        self._bulk.ids.extend(range(self._next_id, self._next_id + count))
        self._next_id += count
        for column, values in zip(self._bulk[2:], columns):
            column.extend(values)

    def instant(self, name: str, ts: float, *, pid: str = "sim",
                tid: str = "main", category: str = "event",
                **args: object) -> Instant:
        """Record a point event at ``ts`` seconds."""
        if not math.isfinite(ts):
            raise ValueError(f"instant '{name}' has a NaN or infinite "
                             f"timestamp ({ts})")
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
        self._spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = self.now()

    # -- inspection ------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Every span, in recording order.

        The list is the tracer's own: appending to it or deleting from
        it changes the trace.  Pending bulk rows are built into
        :class:`Span` objects and merged in by span id on first access.
        """
        if self._bulk.ids:
            labels, *columns = self._bulk
            self._bulk = _no_rows(labels)
            built = [Span(name, start, end, *labels[track], category,
                          SIM_CLOCK, dict(args), span_id)
                     for span_id, name, start, end, track, category, args
                     in zip(*columns)]
            if self._spans and self._spans[-1].span_id > built[0].span_id:
                built = sorted(self._spans + built,
                               key=attrgetter("span_id"))
                self._spans.clear()
            self._spans.extend(built)
        return self._spans

    def sim_columns(self) -> SpanColumns:
        """Every finished sim-time span as columns, in recording order.

        Pending bulk rows come as stored (read them only); spans held as
        objects are read at call time.
        """
        objects = [span for span in self._spans
                   if span.end is not None and span.clock == SIM_CLOCK]
        if not objects:
            return self._bulk
        labels, *columns = self._bulk
        labels, index = list(labels), dict(self._track_index)
        rows = list(zip(*columns))
        for span in objects:
            key = (span.pid, span.tid)
            if key not in index:
                index[key] = len(labels)
                labels.append(key)
            rows.append((span.span_id, span.name, span.start, span.end,
                         index[key], span.category, span.args))
        if self._bulk.ids:
            rows.sort(key=itemgetter(0))
        return SpanColumns(labels, *map(list, zip(*rows)))

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

    def __len__(self) -> int:
        return len(self._spans) + len(self._bulk.ids)
