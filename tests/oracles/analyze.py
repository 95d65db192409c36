"""Trace analysis passes before they became columnar.

:func:`repro.telemetry.analyze.analyze_trace` runs its passes as numpy
operations over the span columns.  They were ported from the per-row
passes here: one Python sort of row indices, then a walk of that order
per pass, every float sum added left to right with ``+=`` or the
builtin ``sum()``.  :func:`analyze` runs them and returns the same
:class:`~repro.telemetry.analyze.TraceAnalysis` the product code does,
so the two can be compared byte for byte on any trace.

One change from the original walk is shared with the product code: a
blocker that starts at or after the cursor (one shorter than the 1 ns
slack, found just past the cursor) is dropped.  The original took it as
a hop of no or negative length, and looped forever when its start was
the cursor itself.

The builtin ``sum()`` adds left to right before Python 3.12 and
compensates its rounding from 3.12 on.  The pinned bytes are the
left-to-right ones, so here every ``sum()`` of the original is
:func:`_sum`, which adds left to right on every interpreter.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from operator import add, sub
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.analyze import (
    _NOT_BLOCKERS,
    _ROOT_CATEGORIES,
    CATEGORY_CLASSES,
    DEFAULT_EPSILON,
    IDLE_HOP,
    ROLLUP_SCHEMA,
    ROLLUP_SCHEMA_VERSION,
    CriticalHop,
    CriticalPath,
    PhaseVerdict,
    TraceAnalysis,
    UtilizationReport,
    TrackUsage,
    bottleneck_of,
    load_trace,
)
from repro.telemetry.spans import SIM_CLOCK, Span, Tracer


def _array_type_of_tid(tid: str) -> Optional[str]:
    """Parse the array type out of a resource-track label.

    Array timelines are named ``"<count>x <size>x<size> <T>[<i>]"`` and
    link channels ``"channel:<T>"`` — both end in the type letter.
    """
    if tid.startswith("channel:"):
        return tid.split(":", 1)[1]
    head = tid.split("[", 1)[0].strip()
    return head.rsplit(" ", 1)[-1] if " " in head else None


def _sum(values) -> float:
    """``sum(values)`` as Python adds floats before 3.12: from int 0,
    left to right."""
    return reduce(add, values, 0)


class _SummedPath(CriticalPath):
    """:class:`CriticalPath` with its total as the original ``sum()``."""

    @property
    def total_seconds(self) -> float:
        return _sum(hop.self_seconds for hop in self.hops)


class _SummedReport(UtilizationReport):
    """:class:`UtilizationReport` with its mean as the original ``sum()``."""

    @property
    def mean_concurrency(self) -> float:
        return _sum(level * share
                    for level, share in self.concurrency.items())


class _Trace:
    """One trace's finished sim-time spans as per-row lists, plus the
    analytics order: row indices stable-sorted by ``(start, pid, tid,
    name)``, the order :meth:`Tracer.finished_spans` returns (ties keep
    recording order).  Every pass below walks ``order`` (or a filter of
    it), so every float sum adds its terms in the order it always has.

    The rows are read from :attr:`Tracer.spans`, the span objects an
    export reads, not from the coded columns the product code reads."""

    def __init__(self, spans: List[Span]) -> None:
        self.labels: List[Tuple[str, str]] = []
        index: Dict[Tuple[str, str], int] = {}
        self.tracks = []
        for span in spans:
            key = (span.pid, span.tid)
            if key not in index:
                index[key] = len(self.labels)
                self.labels.append(key)
            self.tracks.append(index[key])
        self.names = [span.name for span in spans]
        self.starts = [span.start for span in spans]
        self.ends = [span.end for span in spans]
        self.categories = [span.category for span in spans]
        self.args = [span.args for span in spans]
        # (pid, tid) order as one int per track, so the sort key is a
        # float, an int and a string.
        rank = [0] * len(self.labels)
        for position, track in enumerate(sorted(
                range(len(self.labels)), key=self.labels.__getitem__)):
            rank[track] = position
        self.rank = list(map(rank.__getitem__, self.tracks))
        keys = list(zip(self.starts, self.rank, self.names))
        self.order = sorted(range(len(keys)), key=keys.__getitem__)
        self.durations = list(map(sub, self.ends, self.starts))


def _find_root(trace: _Trace, name: Optional[str]) -> Tuple[int, Span]:
    """The end-to-end span the analyses anchor on, and its row.

    With ``name``, the longest sim-time span of that name.  Otherwise
    the longest span of a root category (``run``/``fleet``); if none
    exists — e.g. a hand-built trace — a synthetic span covering the
    hull of all sim-time spans (row -1).
    """
    order, starts, ends = trace.order, trace.starts, trace.ends
    if not order:
        raise ValueError("trace has no finished sim-time spans")

    def longest(rows: List[int]) -> Tuple[int, Span]:
        row = max(rows, key=trace.durations.__getitem__)
        pid, tid = trace.labels[trace.tracks[row]]
        return row, Span(trace.names[row], starts[row], ends[row], pid, tid,
                         trace.categories[row], SIM_CLOCK, trace.args[row])

    if name is not None:
        named = [row for row in order if trace.names[row] == name]
        if not named:
            raise ValueError(f"no sim-time span named '{name}'")
        return longest(named)
    for category in _ROOT_CATEGORIES:
        of_category = [row for row in order
                       if trace.categories[row] == category]
        if of_category:
            return longest(of_category)
    return -1, Span(name="(trace)", start=min(map(starts.__getitem__, order)),
                    end=max(map(ends.__getitem__, order)),
                    pid="analysis", tid="hull", category="run",
                    clock=SIM_CLOCK)


def _critical_path(trace: _Trace, root_row: int,
                   root_span: Span) -> CriticalPath:
    """Chain the blocking predecessors of the end-to-end span.

    Walks backward from the root's end: at every cursor the blocking
    span is the latest-finishing span at (or before) that instant; ties
    prefer the latest-starting (most specific) span, so leaf segments
    win over the umbrella spans that merely contain them.  A cursor no
    span reaches produces a synthetic :data:`IDLE_HOP` — on nominal
    simulator traces the chain is gap-free by construction.
    """
    names, starts, ends, rank = (trace.names, trace.starts, trace.ends,
                                 trace.rank)
    categories, durations = trace.categories, trace.durations
    low = root_span.start + DEFAULT_EPSILON
    high = root_span.end - DEFAULT_EPSILON
    candidates = [
        row for row in trace.order
        if durations[row] > 0.0 and ends[row] > low and starts[row] < high
        and categories[row] not in _NOT_BLOCKERS and row != root_row]
    # Sorted by end for the bisect walk; the tie-break key picks the
    # most specific blocker among equal ends deterministically.
    candidates.sort(key=ends.__getitem__)
    candidate_ends = [ends[row] for row in candidates]
    hops: List[CriticalHop] = []
    gap_seconds = 0.0
    cursor = root_span.end
    while cursor > low:
        index = bisect_right(candidate_ends, cursor + DEFAULT_EPSILON) - 1
        best = candidates[index] if index >= 0 else None
        scan = index - 1
        while scan >= 0 and candidate_ends[scan] >= (ends[best]
                                                     - DEFAULT_EPSILON):
            other = candidates[scan]
            if (starts[other], rank[other], names[other]) > (
                    starts[best], rank[best], names[best]):
                best = other
            scan -= 1
        if best is None or ends[best] < cursor - DEFAULT_EPSILON:
            # Nothing ends at the cursor: idle back to the latest end
            # before it, or to the root's start if nothing ends before.
            idle_from = root_span.start if best is None else ends[best]
            gap = cursor - idle_from
            gap_seconds += gap
            hops.append(CriticalHop(IDLE_HOP, root_span.pid, root_span.tid,
                                    "idle", idle_from, cursor, gap))
            cursor = idle_from
            continue
        if starts[best] >= cursor:
            index = candidates.index(best)
            del candidates[index], candidate_ends[index]
            continue
        lower = max(starts[best], root_span.start)
        pid, tid = trace.labels[trace.tracks[best]]
        args = trace.args[best]
        hops.append(CriticalHop(
            names[best], pid, tid, categories[best], starts[best],
            ends[best], cursor - lower, str(args.get("kind", "")),
            str(args.get("resource", ""))))
        cursor = lower
    hops.reverse()
    return _SummedPath(root_name=root_span.name, root_pid=root_span.pid,
                        root_seconds=root_span.duration,
                        hops=tuple(hops), gap_seconds=gap_seconds)


def _phase_verdicts(trace: _Trace) -> List[PhaseVerdict]:
    """Recompute "bound by" per scheduler run span, from spans alone.

    Each ``orchestrator.run`` span is one phase.  Busy time per array
    group and link channel comes from the ``exec``/``stream``/``host``
    spans inside the phase window on the phase's pid (a recovery shard
    runs a second, offset phase on a surviving pid); idle resources
    contribute through the inventory counts the run span carries.
    Phases without that inventory metadata are skipped.
    """
    names, starts, ends, tracks, labels = (
        trace.names, trace.starts, trace.ends, trace.tracks, trace.labels)
    categories = trace.categories
    phases = [row for row in trace.order if categories[row] == "run"
              and names[row] == "orchestrator.run"]
    if not phases:
        return []
    pids = [pid for pid, _ in labels]
    busy_by_pid: Dict[str, List[int]] = {}
    for row in trace.order:
        if categories[row] in ("exec", "stream", "host"):
            busy_by_pid.setdefault(pids[tracks[row]], []).append(row)
    # The resource a (track, category) pair's busy time counts towards.
    resources: Dict[Tuple[int, str], Optional[str]] = {}
    verdicts: List[PhaseVerdict] = []
    for phase in phases:
        args = trace.args[phase]
        host_slots = args.get("host_slots")
        if not isinstance(host_slots, int):
            continue
        counts = {key[len("arrays_"):].upper(): value
                  for key, value in args.items()
                  if key.startswith("arrays_") and isinstance(value, int)}
        pid = labels[tracks[phase]][0]
        start, end = starts[phase], ends[phase]
        duration = end - start
        busy: Dict[str, float] = {}
        for row in busy_by_pid.get(pid, ()):
            if (starts[row] < start - DEFAULT_EPSILON
                    or ends[row] > end + DEFAULT_EPSILON):
                continue
            key = (tracks[row], categories[row])
            if key not in resources:
                resource = CATEGORY_CLASSES[key[1]]
                if resource != "host":
                    array_type = _array_type_of_tid(labels[key[0]][1])
                    resource = (f"{resource}:{array_type}" if array_type
                                else None)
                resources[key] = resource
            resource = resources[key]
            if resource is not None:
                busy[resource] = (busy.get(resource, 0.0)
                                  + trace.durations[row])
        utilization: Dict[str, float] = {
            "host": (busy.get("host", 0.0) / (duration * host_slots)
                     if duration > 0 and host_slots > 0 else 0.0)}
        for array_type, count in counts.items():
            utilization[f"array:{array_type}"] = (
                busy.get(f"array:{array_type}", 0.0) / (duration * count)
                if duration > 0 and count > 0 else 0.0)
            utilization[f"link:{array_type}"] = (
                busy.get(f"link:{array_type}", 0.0) / duration
                if duration > 0 else 0.0)
        recorded = args.get("bottleneck")
        verdicts.append(PhaseVerdict(
            name=names[phase], pid=pid, start=start, end=end,
            bound_by=bottleneck_of(utilization), utilization=utilization,
            recorded=recorded if isinstance(recorded, str) else None))
    verdicts.sort(key=lambda v: (v.start, v.pid))
    return verdicts


def _utilization(trace: _Trace, root_span: Span) -> UtilizationReport:
    """Per-track busy/idle/blocked, the concurrency histogram, verdicts.

    Busy time counts the resource-occupying categories only (see
    :data:`CATEGORY_CLASSES`); thread tracks additionally report
    *blocked* time — the gap between a task's recorded ``ready`` time
    and its actual start, i.e. time spent waiting on a contended
    resource rather than on a dependency.
    """
    starts, ends, categories, labels, durations, args, row_tracks = (
        trace.starts, trace.ends, trace.categories, trace.labels,
        trace.durations, trace.args, trace.tracks)
    horizon = root_span.duration
    root_start, root_end = root_span.start, root_span.end
    by_track: Dict[int, List[int]] = {}
    for row in trace.order:
        if (categories[row] in CATEGORY_CLASSES and ends[row] > root_start
                and starts[row] < root_end):
            by_track.setdefault(row_tracks[row], []).append(row)
    tracks: List[TrackUsage] = []
    # Resource-span starts and ends clipped to the root window.
    ups: List[float] = []
    downs: List[float] = []
    for track in sorted(by_track, key=labels.__getitem__):
        rows = by_track[track]
        # A track carries one class in practice; mixed tracks (e.g. a
        # fleet instance running shard + recovery) collapse sensibly.
        resource_class = min(CATEGORY_CLASSES[category] for category
                             in set(map(categories.__getitem__, rows)))
        blocked = 0.0
        for row in rows:
            ready = args[row].get("ready")
            if ready is not None and isinstance(ready, (int, float)) \
                    and not isinstance(ready, bool):
                blocked += max(starts[row] - float(ready), 0.0)
        pid, tid = labels[track]
        tracks.append(TrackUsage(
            pid=pid, tid=tid, resource_class=resource_class,
            busy_seconds=_sum(map(durations.__getitem__, rows)),
            blocked_seconds=blocked, horizon_seconds=horizon,
            spans=len(rows)))
        if resource_class == "thread":
            continue
        track_starts = list(map(starts.__getitem__, rows))
        track_ends = list(map(ends.__getitem__, rows))
        if (min(track_starts) >= root_start and max(track_ends) <= root_end
                and min(map(durations.__getitem__, rows)) > 0.0):
            ups += track_starts
            downs += track_ends
            continue
        for start, end in zip(track_starts, track_ends):
            start = max(start, root_start)
            end = min(end, root_end)
            if end > start:
                ups.append(start)
                downs.append(end)
    return _SummedReport(
        horizon_seconds=horizon, tracks=tuple(tracks),
        concurrency=_concurrency(ups, downs, root_start, root_end, horizon),
        phases=tuple(_phase_verdicts(trace)))


def _concurrency(ups: List[float], downs: List[float], root_start: float,
                 root_end: float, horizon: float) -> Dict[int, float]:
    """Share of the root window spent at each resource-concurrency level.

    Sweeps the interval starts (``+1``) and ends (``-1``) in time order,
    ends first at equal times.
    """
    concurrency: Dict[int, float] = {}
    if horizon <= 0:
        return concurrency
    ups.sort()
    downs.sort()
    level = 0
    previous = root_start
    up, count = 0, len(ups)
    for down in downs:
        while up < count and ups[up] < down:
            t = ups[up]
            if t > previous:
                concurrency[level] = (concurrency.get(level, 0.0)
                                      + (t - previous) / horizon)
            previous = t
            level += 1
            up += 1
        if down > previous:
            concurrency[level] = (concurrency.get(level, 0.0)
                                  + (down - previous) / horizon)
        previous = down
        level -= 1
    if root_end > previous:
        concurrency[level] = (concurrency.get(level, 0.0)
                              + (root_end - previous) / horizon)
    return concurrency


def _rollup(trace: _Trace, root_row: int, root_span: Span,
            path: CriticalPath,
            report: UtilizationReport) -> Dict[str, object]:
    """The rollup document :func:`build_rollup` describes."""
    names, categories, durations = (trace.names, trace.categories,
                                    trace.durations)
    groups: Dict[Tuple[str, str], List[float]] = {}
    for row in trace.order:
        if row != root_row and categories[row] not in _ROOT_CATEGORIES:
            groups.setdefault((names[row], categories[row]), []).append(
                durations[row])
    critical: Dict[Tuple[str, str], List[float]] = {}
    for hop in path.hops:
        key = (hop.name, hop.category)
        critical.setdefault(key, []).append(hop.self_seconds)
    return {
        "schema": ROLLUP_SCHEMA,
        "schema_version": ROLLUP_SCHEMA_VERSION,
        "root": root_span.name,
        "root_seconds": root_span.duration,
        "spans": [
            {"name": name, "category": category,
             "count": len(durations), "total_seconds": _sum(durations)}
            for (name, category), durations in sorted(groups.items())],
        "classes": report.class_busy(),
        "critical": [
            {"name": name, "category": category,
             "count": len(selfs), "self_seconds": _sum(selfs)}
            for (name, category), selfs in sorted(critical.items())],
        "bound_by": (report.phases[0].bound_by
                     if report.phases else None),
    }


def analyze(source: Union[Tracer, Dict[str, object], str],
            root: Optional[str] = None) -> TraceAnalysis:
    """The analysis :func:`repro.telemetry.analyze.analyze_trace` makes
    of ``source`` (without a diff), by the per-row passes."""
    trace = _Trace([span for span in load_trace(source).spans
                    if span.end is not None and span.clock == SIM_CLOCK])
    root_row, root_span = _find_root(trace, root)
    path = _critical_path(trace, root_row, root_span)
    utilization = _utilization(trace, root_span)
    return TraceAnalysis(path=path, utilization=utilization,
                         rollup=_rollup(trace, root_row, root_span, path,
                                        utilization))
