"""Span tracer for the simulated stack.

A :class:`Tracer` collects *spans* — named intervals on a (process,
track) pair — plus point-in-time *instant* events.  Two clock domains
coexist:

* **sim-time** spans are recorded retroactively with explicit start/end
  timestamps in simulated seconds, which is how the discrete-event
  schedulers report their placements: one span at a time
  (:meth:`Tracer.add_span`), or many at once as coded columns
  (:meth:`Tracer.add_spans`);
* **wall-clock** spans wrap real work with the :meth:`Tracer.span`
  context manager, timed against the tracer's own monotonic epoch —
  used by the functional datapath.

Sim-time spans have one column format, :class:`SpanColumns`: numpy
arrays of start, end, track index, span id and ready time, and names,
categories and args dicts as integer codes into tables.  Rows share
table entries: the orchestrator codes each node's span names and
reservation args once and each task's args once per node and
resource, and keeps the per-task ``ready`` time in the ready column
(NaN where the args dict holds it).  Bulk rows stay in that format
until someone iterates :attr:`Tracer.spans` (export, rendering,
tests), which builds their objects once, each args dict a copy with
its ``ready`` filled in.  Spans recorded one at a time are
:class:`Span` objects from the start (the fleet, serving and system
simulators and the Chrome-JSON loader record them so), and
:meth:`Tracer.sim_columns` codes them into the same format, each into
table entries of its own, and merges them with the bulk rows by span
id.  Trace analytics read only the columns: they never build a
``Span`` or an args dict per row.

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
from operator import attrgetter
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np
from numpy.typing import ArrayLike

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
    """Sim-time spans as coded columns: row ``i`` of each array is a span.

    Strings and args dicts are codes into tables: ``name_codes`` index
    ``names``, ``category_codes`` index ``categories``, ``arg_codes``
    index ``args`` and ``tracks`` index ``labels``, the (pid, tid)
    pairs.  A table may hold a value twice, and rows may share an args
    dict: the columns only read it.  ``ready`` is the row's ``ready``
    time, NaN where its args dict alone says (the orchestrator's tasks
    share one dict per node and resource, and keep the per-task time
    here).
    """

    labels: List[Tuple[str, str]]
    names: List[str]
    categories: List[str]
    args: List[Dict[str, object]]
    ids: np.ndarray
    name_codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    tracks: np.ndarray
    category_codes: np.ndarray
    arg_codes: np.ndarray
    ready: np.ndarray


def _span_args(args: Dict[str, object], ready: float) -> Dict[str, object]:
    """A bulk row's own args: a copy of its table entry, with ``ready``
    set from the row's column unless that is NaN."""
    args = dict(args)
    if ready == ready:
        args["ready"] = ready
    return args


def _no_rows(labels: List[Tuple[str, str]]) -> SpanColumns:
    codes = np.zeros(0, dtype=np.intp)
    times = np.zeros(0)
    return SpanColumns(labels, [], [], [], codes, codes, times, times,
                       codes, codes, codes, times)


def _concatenate(labels: List[Tuple[str, str]],
                 blocks: List[SpanColumns]) -> SpanColumns:
    """One set of columns holding every block's rows, in span-id order.

    Each block's codes shift past the tables of the blocks before it.
    """
    if not blocks:
        return _no_rows(labels)
    if len(blocks) == 1:
        return blocks[0]._replace(labels=labels)
    tables: Tuple[List, ...] = ([], [], [])
    rows: Tuple[List[np.ndarray], ...] = tuple([] for _ in range(8))
    for block in blocks:
        offsets = [len(table) for table in tables]
        for table, values in zip(tables, block[1:4]):
            table.extend(values)
        (ids, name_codes, starts, ends, tracks, category_codes, arg_codes,
         ready) = block[4:]
        for column, values in zip(rows, (
                ids, name_codes + offsets[0], starts, ends, tracks,
                category_codes + offsets[1], arg_codes + offsets[2],
                ready)):
            column.append(values)
    columns = [np.concatenate(column) for column in rows]
    if np.any(columns[0][1:] < columns[0][:-1]):
        order = np.argsort(columns[0], kind="stable")
        columns = [column[order] for column in columns]
    return SpanColumns(labels, *tables, *columns)


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
        #: Bulk rows not yet built into objects, one block per
        #: :meth:`add_spans` call, and the track table they share.
        self._blocks: List[SpanColumns] = []
        self._labels: List[Tuple[str, str]] = []
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
            self._track_index[(pid, tid)] = len(self._labels)
            self._labels.append((pid, tid))
        return self._track_index[(pid, tid)]

    def add_spans(self, names: Sequence[str], categories: Sequence[str],
                  args: Sequence[Dict[str, object]], name_codes: ArrayLike,
                  category_codes: ArrayLike, arg_codes: ArrayLike,
                  starts: ArrayLike, ends: ArrayLike, tracks: ArrayLike,
                  ready: ArrayLike) -> None:
        """Record finished sim-time spans in bulk, as coded columns.

        ``names``, ``categories`` and ``args`` are tables, and the other
        arguments are one column each, in the layout of
        :class:`SpanColumns`.  Row ``i`` is the span
        ``add_span(names[name_codes[i]], starts[i], ends[i],
        category=categories[category_codes[i]], **row_args)`` on track
        ``tracks[i]`` (an index from :meth:`track`), where ``row_args``
        is ``args[arg_codes[i]]`` with its ``ready`` set to ``ready[i]``
        unless that is NaN.  The rows pass the same checks and get the
        span ids and recording order those calls would; building a
        row's :class:`Span` copies its args.
        """
        columns = (np.asarray(name_codes, dtype=np.intp),
                   np.asarray(starts, dtype=float),
                   np.asarray(ends, dtype=float),
                   np.asarray(tracks, dtype=np.intp),
                   np.asarray(category_codes, dtype=np.intp),
                   np.asarray(arg_codes, dtype=np.intp),
                   np.asarray(ready, dtype=float))
        count = len(columns[0])
        if any(column.shape != (count,) for column in columns):
            raise ValueError("add_spans columns differ in length")
        starts, ends = columns[1:3]
        # NaN fails `>=`, so one mask finds every bad row.
        bad = ~((ends >= starts) & np.isfinite(starts) & np.isfinite(ends))
        if bad.any():
            row = int(np.argmax(bad))
            _check_span(names[columns[0][row]], starts[row].item(),
                        ends[row].item())
        if not count:
            return
        ids = np.arange(self._next_id, self._next_id + count)
        self._next_id += count
        self._blocks.append(SpanColumns(
            self._labels, list(names), list(categories), list(args), ids,
            *columns))

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
        if self._blocks:
            labels, blocks = self._labels, self._blocks
            self._blocks = []
            built = [
                Span(block.names[name], start, end, *labels[track],
                     block.categories[category], SIM_CLOCK,
                     _span_args(block.args[args], ready), span_id)
                for block in blocks
                for span_id, name, start, end, track, category, args, ready
                in zip(*(column.tolist() for column in block[4:]))]
            if self._spans and self._spans[-1].span_id > built[0].span_id:
                built = sorted(self._spans + built,
                               key=attrgetter("span_id"))
                self._spans.clear()
            self._spans.extend(built)
        return self._spans

    def sim_columns(self) -> SpanColumns:
        """Every finished sim-time span as coded columns, in recording
        order.

        Pending bulk rows come as stored (read them only); spans held as
        objects are coded at call time, each into its own table entries.
        """
        blocks = list(self._blocks)
        objects = [span for span in self._spans
                   if span.end is not None and span.clock == SIM_CLOCK]
        labels = self._labels
        if objects:
            labels, index = list(labels), dict(self._track_index)
            tracks = []
            for span in objects:
                key = (span.pid, span.tid)
                if key not in index:
                    index[key] = len(labels)
                    labels.append(key)
                tracks.append(index[key])
            codes = np.arange(len(objects))
            blocks.append(SpanColumns(
                labels, [span.name for span in objects],
                [span.category for span in objects],
                [span.args for span in objects],
                np.array([span.span_id for span in objects]), codes,
                np.array([span.start for span in objects], dtype=float),
                np.array([span.end for span in objects], dtype=float),
                np.array(tracks, dtype=np.intp), codes, codes,
                np.full(len(objects), np.nan)))
        return _concatenate(labels, blocks)

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
        return len(self._spans) + sum(len(block.ids)
                                      for block in self._blocks)
