"""Trace analytics: critical paths, utilization attribution, trace diffs.

The recording layers (:class:`~repro.telemetry.spans.Tracer`, the
metrics registry, the SLO monitor) can say *what* happened; this module says
*why a number is what it is*.  Three analyses over a finished trace (a
live :class:`Tracer` or Chrome-trace JSON), read as span columns
(:meth:`Tracer.sim_columns`): one sort of a list of row indices orders
the rows as :meth:`Tracer.finished_spans` orders its spans, and every
pass walks that order, so each float sum adds its terms in the same
order whether the spans were recorded in bulk or one at a time.  No
:class:`Span` is built per row:

* **critical path** — starting from the end of the root span, repeatedly
  hop to the span whose completion unblocked the current instant (the
  latest-finishing span at the cursor).  Every placement decision in the
  simulated stack starts either when its dependency finished or when a
  resource freed, and both leave a span ending at exactly that time, so
  the backward chain tiles the root span gap-free: the ordered hops with
  per-hop self-time *are* the end-to-end latency, attributed.
* **utilization attribution** — per-track busy/idle/blocked fractions, a
  concurrency histogram over the root window, and a per-phase "bound by"
  verdict recomputed from the spans alone, cross-checked against the
  ``bottleneck`` the scheduler recorded on its run span.
* **trace diff** — two traces of the same scenario aligned by span
  ``(name, category)`` structure; the end-to-end delta is attributed to
  the top-k span groups that moved.  Rollups (the diff's input, carried
  by each analysis) are JSON documents, so a committed rollup can serve
  as the baseline of a later diff without re-running old code.

Everything here is read-only over recorded spans: analyzing a run can
never change its results.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import sub
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .spans import SIM_CLOCK, Span, SpanColumns, Tracer

#: Slack (seconds) for "ends at the cursor" checks; sim spans share the
#: exact floats of the schedule, so this only absorbs last-ulp noise.
DEFAULT_EPSILON = 1e-9

#: Rollup document identifier and version; bump on incompatible changes.
ROLLUP_SCHEMA = "repro.trace-rollup"
ROLLUP_SCHEMA_VERSION = 1

#: Span categories that occupy a schedulable resource, and the resource
#: class each belongs to.  ``task`` spans live on software-thread tracks
#: (they mirror work already counted on a resource track), so they form
#: their own class and are excluded from resource concurrency.
CATEGORY_CLASSES = {
    "exec": "array",
    "stream": "link",
    "host": "host",
    "task": "thread",
    "shard": "compute",
    "recovery": "compute",
    "fabric": "link",
}

#: Root-candidate categories, most preferred first.
_ROOT_CATEGORIES = ("run", "fleet")

#: Categories that never block a critical-path cursor.
_NOT_BLOCKERS = frozenset(_ROOT_CATEGORIES + ("critical", "idle"))

#: Synthetic hop name for uncovered path segments.
IDLE_HOP = "(idle)"


# -- trace loading -------------------------------------------------------

def tracer_from_chrome_trace(data: Dict[str, object]) -> Tracer:
    """Rebuild a :class:`Tracer` from an exported Chrome-trace dict.

    Inverse of :func:`repro.telemetry.export.to_chrome_trace` for the
    span/instant content: ``M`` metadata events restore the pid/tid
    labels, ``X`` events become spans (the ``clock`` attribute survives
    the round trip through ``args``), ``i`` events become instants.
    Counter tracks and the profile process carry no schedule structure
    and are skipped.  A malformed document raises a one-line
    :class:`ValueError` naming the offending event index.
    """
    events = data.get("traceEvents") if isinstance(data, dict) else None
    if not isinstance(events, list):
        raise ValueError("trace must carry a traceEvents list")
    pid_names: Dict[int, str] = {}
    tid_names: Dict[Tuple[int, int], str] = {}
    tracer = Tracer()

    def seconds(event: Dict[str, object], key: str) -> float:
        value = event[key] if key == "ts" else event.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"non-numeric {key!r} {value!r}")
        return float(value) / 1e6

    for metadata in (True, False):
        for index, event in enumerate(events):
            try:
                if not isinstance(event, dict):
                    raise ValueError(f"not an object: {event!r}")
                phase = event.get("ph")
                args = event.get("args") or {}
                if not isinstance(args, dict):
                    raise ValueError(f"non-object 'args' {args!r}")
                if metadata:
                    if phase != "M":
                        continue
                    if event.get("name") == "process_name":
                        pid_names[event["pid"]] = event["args"]["name"]
                    elif event.get("name") == "thread_name":
                        tid_names[(event["pid"], event["tid"])] = \
                            event["args"]["name"]
                    continue
                if phase not in ("X", "i"):
                    continue
                pid = pid_names.get(event["pid"], str(event["pid"]))
                if pid in ("profile", "analysis"):
                    # Derived tracks (hotspot lanes, a critical-path
                    # highlight) would double-count if re-analyzed.
                    continue
                tid = tid_names.get((event["pid"], event["tid"]),
                                    str(event["tid"]))
                args = dict(args)
                start = seconds(event, "ts")
                if phase == "i":
                    tracer.instant(event["name"], start, pid=pid, tid=tid,
                                   category=str(event.get("cat", "event")),
                                   **args)
                    continue
                clock = str(args.pop("clock", SIM_CLOCK))
                tracer.add_span(event["name"], start,
                                start + seconds(event, "dur"), pid=pid,
                                tid=tid,
                                category=str(event.get("cat", "span")),
                                clock=clock, **args)
            except KeyError as error:
                raise ValueError(f"trace event {index} has no "
                                 f"{error.args[0]!r} key") from error
            except (TypeError, ValueError) as error:
                raise ValueError(f"trace event {index}: {error}") from error
    return tracer


def load_trace(source: Union[Tracer, Dict[str, object], str]) -> Tracer:
    """Coerce a tracer, Chrome-trace dict, or JSON path to a Tracer."""
    if isinstance(source, Tracer):
        return source
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            return tracer_from_chrome_trace(json.load(handle))
    if isinstance(source, dict):
        return tracer_from_chrome_trace(source)
    raise TypeError(f"cannot load a trace from {type(source).__name__}")


class _Trace:
    """One trace's finished sim-time span columns, plus the analytics
    order: row indices stable-sorted by ``(start, pid, tid, name)``, the
    order :meth:`Tracer.finished_spans` returns (ties keep recording
    order).  Every pass below walks ``order`` (or a filter of it), so
    every float sum adds its terms in the order it always has."""

    def __init__(self, columns: SpanColumns) -> None:
        (self.labels, _, self.names, self.starts, self.ends, self.tracks,
         self.categories, self.args) = columns
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


# -- critical path -------------------------------------------------------

class CriticalHop(NamedTuple):
    """One chained segment of the critical path (chronological order).

    ``self_seconds`` is the slice of end-to-end time this hop alone
    accounts for — the sum over all hops equals the root duration.
    """

    name: str
    pid: str
    tid: str
    category: str
    start: float
    end: float
    self_seconds: float
    kind: str = ""
    resource: str = ""

    def as_dict(self) -> Dict[str, object]:
        return self._asdict()


@dataclass(frozen=True)
class CriticalPath:
    """The blocking chain behind one end-to-end span."""

    root_name: str
    root_pid: str
    root_seconds: float
    hops: Tuple[CriticalHop, ...]
    gap_seconds: float

    @property
    def total_seconds(self) -> float:
        """Sum of per-hop self time (== root duration, gaps included)."""
        return sum(hop.self_seconds for hop in self.hops)

    @property
    def gaps(self) -> int:
        return sum(1 for hop in self.hops if hop.name == IDLE_HOP)

    def by_category(self) -> Dict[str, float]:
        """Path self-time per span category, largest first."""
        totals: Dict[str, float] = {}
        for hop in self.hops:
            totals[hop.category] = (totals.get(hop.category, 0.0)
                                    + hop.self_seconds)
        return dict(sorted(totals.items(),
                           key=lambda item: (-item[1], item[0])))

    def as_dict(self) -> Dict[str, object]:
        return {"root": self.root_name, "pid": self.root_pid,
                "root_seconds": self.root_seconds,
                "total_seconds": self.total_seconds,
                "gap_seconds": self.gap_seconds,
                "hops": [hop.as_dict() for hop in self.hops],
                "by_category": self.by_category()}


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
        lower = max(starts[best], root_span.start)
        pid, tid = trace.labels[trace.tracks[best]]
        args = trace.args[best]
        hops.append(CriticalHop(
            names[best], pid, tid, categories[best], starts[best],
            ends[best], cursor - lower, str(args.get("kind", "")),
            str(args.get("resource", ""))))
        cursor = lower
    hops.reverse()
    return CriticalPath(root_name=root_span.name, root_pid=root_span.pid,
                        root_seconds=root_span.duration,
                        hops=tuple(hops), gap_seconds=gap_seconds)


# -- utilization & phase verdicts ---------------------------------------

@dataclass(frozen=True)
class TrackUsage:
    """Busy/idle/blocked accounting for one (pid, tid) track."""

    pid: str
    tid: str
    resource_class: str
    busy_seconds: float
    blocked_seconds: float
    horizon_seconds: float
    spans: int

    @property
    def busy_fraction(self) -> float:
        return (self.busy_seconds / self.horizon_seconds
                if self.horizon_seconds > 0 else 0.0)

    @property
    def idle_seconds(self) -> float:
        return max(self.horizon_seconds - self.busy_seconds
                   - self.blocked_seconds, 0.0)

    def as_dict(self) -> Dict[str, object]:
        return {"pid": self.pid, "tid": self.tid,
                "class": self.resource_class,
                "busy_seconds": self.busy_seconds,
                "blocked_seconds": self.blocked_seconds,
                "idle_seconds": self.idle_seconds,
                "busy_fraction": self.busy_fraction,
                "spans": self.spans}


@dataclass(frozen=True)
class PhaseVerdict:
    """One schedule phase's resource verdict, trace-recomputed.

    ``bound_by`` is derived from span busy-time alone, with the same
    tie-break the scheduler uses; ``recorded`` is the ``bottleneck`` the
    run span carried (None on traces that predate that metadata), and
    ``agrees`` whether the two name the same resource.
    """

    name: str
    pid: str
    start: float
    end: float
    bound_by: str
    utilization: Dict[str, float]
    recorded: Optional[str] = None

    @property
    def agrees(self) -> Optional[bool]:
        if self.recorded is None:
            return None
        return self.bound_by == self.recorded

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "pid": self.pid, "start": self.start,
                "end": self.end, "bound_by": self.bound_by,
                "recorded": self.recorded, "agrees": self.agrees,
                "utilization": dict(sorted(self.utilization.items()))}


#: Resource classes in bottleneck tie-break order.
_BOTTLENECK_RANK = {"array": 0, "link": 1, "host": 2}


def bottleneck_of(utilization: Dict[str, float]) -> str:
    """The busiest of ``host``/``array:<T>``/``link:<T>``; exact ties go
    array > link > host, then alphabetically (the scheduler's rule)."""
    return min(utilization.items(),
               key=lambda item: (-item[1],
                                 _BOTTLENECK_RANK.get(
                                     item[0].split(":")[0], 99),
                                 item[0]))[0]


def _array_type_of_tid(tid: str) -> Optional[str]:
    """Parse the array type out of a resource-track label.

    Array timelines are named ``"<count>x <size>x<size> <T>[<i>]"`` and
    link channels ``"channel:<T>"`` — both end in the type letter.
    """
    if tid.startswith("channel:"):
        return tid.split(":", 1)[1]
    head = tid.split("[", 1)[0].strip()
    return head.rsplit(" ", 1)[-1] if " " in head else None


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


@dataclass(frozen=True)
class UtilizationReport:
    """Busy/idle/blocked attribution over the root window."""

    horizon_seconds: float
    tracks: Tuple[TrackUsage, ...]
    concurrency: Dict[int, float]
    phases: Tuple[PhaseVerdict, ...] = ()

    def class_busy(self) -> Dict[str, float]:
        """Total busy seconds per resource class."""
        totals: Dict[str, float] = {}
        for track in self.tracks:
            totals[track.resource_class] = (
                totals.get(track.resource_class, 0.0) + track.busy_seconds)
        return dict(sorted(totals.items()))

    @property
    def mean_concurrency(self) -> float:
        return sum(level * share
                   for level, share in self.concurrency.items())

    def as_dict(self) -> Dict[str, object]:
        return {"horizon_seconds": self.horizon_seconds,
                "tracks": [track.as_dict() for track in self.tracks],
                "class_busy_seconds": self.class_busy(),
                "concurrency": {str(k): v
                                for k, v in sorted(self.concurrency.items())},
                "mean_concurrency": self.mean_concurrency,
                "phases": [phase.as_dict() for phase in self.phases]}


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
            busy_seconds=sum(map(durations.__getitem__, rows)),
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
    return UtilizationReport(
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


# -- rollups & trace diff ------------------------------------------------

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
             "count": len(durations), "total_seconds": sum(durations)}
            for (name, category), durations in sorted(groups.items())],
        "classes": report.class_busy(),
        "critical": [
            {"name": name, "category": category,
             "count": len(selfs), "self_seconds": sum(selfs)}
            for (name, category), selfs in sorted(critical.items())],
        "bound_by": (report.phases[0].bound_by
                     if report.phases else None),
    }


def validate_rollup(rollup: Dict[str, object]) -> Dict[str, object]:
    """Schema-check one rollup document; returns it, raises ValueError."""
    if not isinstance(rollup, dict):
        raise ValueError("rollup must be a JSON object")
    if rollup.get("schema") != ROLLUP_SCHEMA:
        raise ValueError(f"not a {ROLLUP_SCHEMA} document: "
                         f"schema={rollup.get('schema')!r}")
    version = rollup.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"bad rollup schema_version {version!r}")
    if version > ROLLUP_SCHEMA_VERSION:
        raise ValueError(f"rollup schema_version {version} is newer than "
                         f"this reader ({ROLLUP_SCHEMA_VERSION})")
    root_seconds = rollup.get("root_seconds")
    if not isinstance(root_seconds, (int, float)) or root_seconds < 0:
        raise ValueError(f"bad rollup root_seconds {root_seconds!r}")
    spans = rollup.get("spans")
    if not isinstance(spans, list):
        raise ValueError("rollup must carry a spans list")
    for entry in spans:
        if not isinstance(entry, dict) or not isinstance(
                entry.get("name"), str) or not isinstance(
                entry.get("total_seconds"), (int, float)):
            raise ValueError(f"bad rollup span entry {entry!r}")
        if not isinstance(entry.get("count", 1), int):
            raise ValueError(f"bad rollup span count {entry['count']!r}")
    classes = rollup.get("classes", {})
    if not isinstance(classes, dict) or not all(
            isinstance(value, (int, float)) for value in classes.values()):
        raise ValueError(f"bad rollup classes {classes!r}")
    return rollup


@dataclass(frozen=True)
class AttributionRow:
    """One span group's contribution to the end-to-end delta."""

    name: str
    category: str
    baseline_seconds: float
    current_seconds: float
    baseline_count: int
    current_count: int

    @property
    def delta_seconds(self) -> float:
        return self.current_seconds - self.baseline_seconds

    @property
    def status(self) -> str:
        if self.baseline_count == 0:
            return "added"
        if self.current_count == 0:
            return "removed"
        return "moved"

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "category": self.category,
                "baseline_seconds": self.baseline_seconds,
                "current_seconds": self.current_seconds,
                "baseline_count": self.baseline_count,
                "current_count": self.current_count,
                "delta_seconds": self.delta_seconds,
                "status": self.status}


@dataclass(frozen=True)
class TraceDiff:
    """Run-to-run latency delta, attributed to the spans that moved."""

    root: str
    baseline_seconds: float
    current_seconds: float
    rows: Tuple[AttributionRow, ...]
    class_deltas: Dict[str, float] = field(default_factory=dict)

    @property
    def delta_seconds(self) -> float:
        return self.current_seconds - self.baseline_seconds

    @property
    def delta_pct(self) -> float:
        return (self.delta_seconds / self.baseline_seconds * 100.0
                if self.baseline_seconds > 0 else 0.0)

    def top(self, k: int) -> Tuple[AttributionRow, ...]:
        return self.rows[:k]

    def as_dict(self, top: Optional[int] = None) -> Dict[str, object]:
        rows = self.rows if top is None else self.top(top)
        return {"root": self.root,
                "baseline_seconds": self.baseline_seconds,
                "current_seconds": self.current_seconds,
                "delta_seconds": self.delta_seconds,
                "delta_pct": self.delta_pct,
                "class_deltas": dict(sorted(self.class_deltas.items())),
                "rows": [row.as_dict() for row in rows]}


def diff_rollups(baseline: Dict[str, object],
                 current: Dict[str, object]) -> TraceDiff:
    """Attribute the end-to-end delta between two aligned rollups.

    Rows are every ``(name, category)`` group either side measured,
    sorted by absolute delta (largest mover first); groups only one
    side has surface as ``added``/``removed`` — structural drift, not
    just a slowdown.
    """
    validate_rollup(baseline)
    validate_rollup(current)

    def entries(rollup: Dict[str, object]
                ) -> Dict[Tuple[str, str], Tuple[float, int]]:
        table: Dict[Tuple[str, str], Tuple[float, int]] = {}
        for entry in rollup["spans"]:
            key = (str(entry["name"]), str(entry.get("category", "span")))
            seconds, count = table.get(key, (0.0, 0))
            table[key] = (seconds + float(entry["total_seconds"]),
                          count + int(entry.get("count", 1)))
        return table

    base_entries = entries(baseline)
    cur_entries = entries(current)
    rows = []
    for key in sorted(set(base_entries) | set(cur_entries)):
        base_seconds, base_count = base_entries.get(key, (0.0, 0))
        cur_seconds, cur_count = cur_entries.get(key, (0.0, 0))
        rows.append(AttributionRow(
            name=key[0], category=key[1],
            baseline_seconds=base_seconds, current_seconds=cur_seconds,
            baseline_count=base_count, current_count=cur_count))
    rows.sort(key=lambda row: (-abs(row.delta_seconds), row.name,
                               row.category))
    base_classes = {str(k): float(v)
                    for k, v in baseline.get("classes", {}).items()}
    cur_classes = {str(k): float(v)
                   for k, v in current.get("classes", {}).items()}
    class_deltas = {
        name: cur_classes.get(name, 0.0) - base_classes.get(name, 0.0)
        for name in sorted(set(base_classes) | set(cur_classes))}
    return TraceDiff(
        root=str(current.get("root", baseline.get("root", "(trace)"))),
        baseline_seconds=float(baseline["root_seconds"]),
        current_seconds=float(current["root_seconds"]),
        rows=tuple(rows), class_deltas=class_deltas)


# -- whole-trace analysis ------------------------------------------------

@dataclass(frozen=True)
class TraceAnalysis:
    """Everything ``cli analyze`` reports for one trace."""

    path: CriticalPath
    utilization: UtilizationReport
    rollup: Dict[str, object]  # feeds diffs; not part of as_dict()
    diff: Optional[TraceDiff] = None

    def as_dict(self, top: Optional[int] = None) -> Dict[str, object]:
        data: Dict[str, object] = {
            "critical_path": self.path.as_dict(),
            "utilization": self.utilization.as_dict()}
        if self.diff is not None:
            data["diff"] = self.diff.as_dict(top=top)
        return data

    def to_json(self, top: Optional[int] = None) -> str:
        """Canonical (sorted-keys) JSON; byte-identical per seed."""
        return json.dumps(self.as_dict(top=top), sort_keys=True, indent=1)


def analyze_trace(source: Union[Tracer, Dict[str, object], str],
                  against: Union[Tracer, Dict[str, object], str,
                                 None] = None,
                  root: Optional[str] = None) -> TraceAnalysis:
    """Run every analysis over one sort of ``source``'s span columns.

    Args:
        source: tracer, Chrome-trace dict, or path to an exported JSON.
        against: optional baseline trace; adds the run-to-run diff.
        root: anchor span name (default: the run/fleet root).
    """
    trace = _Trace(load_trace(source).sim_columns())
    root_row, root_span = _find_root(trace, root)
    path = _critical_path(trace, root_row, root_span)
    utilization = _utilization(trace, root_span)
    rollup = _rollup(trace, root_row, root_span, path, utilization)
    diff = None
    if against is not None:
        diff = diff_rollups(analyze_trace(against, root=root).rollup, rollup)
    return TraceAnalysis(path=path, utilization=utilization, rollup=rollup,
                         diff=diff)


def build_rollup(source: Union[Tracer, Dict[str, object], str],
                 root: Optional[str] = None) -> Dict[str, object]:
    """Aggregate a trace into a compact, diffable JSON document.

    Spans group by ``(name, category)``; the rollup carries per-group
    count and total duration, per-class busy seconds, the root
    duration, and the critical path aggregated the same way.  Two runs
    of the same scenario align by these keys even when thread/track
    placement differs.  It is the rollup :func:`analyze_trace` carries.
    """
    return analyze_trace(source, root=root).rollup


def critical_path_spans(path: CriticalPath) -> List[Span]:
    """The path as disjoint highlight spans for Perfetto re-export.

    Pass to :func:`repro.telemetry.export.to_chrome_trace` via
    ``extra_spans``: the hops tile the root window end to end on one
    track, so the export stays schema- and nesting-valid while the
    critical chain renders as its own highlighted row.
    """
    spans = []
    cursor = None
    for index, hop in enumerate(path.hops):
        start = (hop.end - hop.self_seconds if cursor is None else cursor)
        end = start + hop.self_seconds
        spans.append(Span(
            name=hop.name, start=start, end=end, pid="analysis",
            tid="critical path", category="critical", clock=SIM_CLOCK,
            args={"hop": index, "source_track": f"{hop.pid}/{hop.tid}",
                  "source_category": hop.category,
                  "self_seconds": hop.self_seconds}))
        cursor = end
    return spans


# -- formatting ----------------------------------------------------------

def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f}"


def format_critical_path(path: CriticalPath,
                         top: Optional[int] = None) -> str:
    """Ordered hop table with per-hop self time and share."""
    lines = [f"critical path of '{path.root_name}' "
             f"({_ms(path.root_seconds).strip()} ms end-to-end, "
             f"{len(path.hops)} hop(s), "
             f"{_ms(path.gap_seconds).strip()} ms idle gaps)"]
    hops = list(path.hops)
    shown = hops if top is None else sorted(
        hops, key=lambda hop: -hop.self_seconds)[:top]
    order = {id(hop): i for i, hop in enumerate(hops)}
    shown.sort(key=lambda hop: order[id(hop)])
    width = max([len(hop.name) for hop in shown] or [8])
    total = path.total_seconds or 1.0
    for hop in shown:
        where = f"{hop.pid}/{hop.tid}"
        lines.append(
            f"  {_ms(hop.self_seconds)} ms {hop.self_seconds / total:6.1%}"
            f"  {hop.name:<{width}s}  [{hop.category}] {where}")
    if top is not None and len(hops) > len(shown):
        rest = sum(hop.self_seconds for hop in hops) - sum(
            hop.self_seconds for hop in shown)
        lines.append(f"  {_ms(rest)} ms {rest / total:6.1%}  "
                     f"({len(hops) - len(shown)} more hop(s))")
    by_category = path.by_category()
    summary = ", ".join(f"{category} {seconds / total:.1%}"
                        for category, seconds in by_category.items())
    lines.append(f"  path composition: {summary}")
    return "\n".join(lines)


def format_utilization(report: UtilizationReport,
                       top: Optional[int] = None) -> str:
    """Per-track busy/blocked/idle table plus phase verdicts."""
    lines = [f"utilization over {_ms(report.horizon_seconds).strip()} ms "
             f"(mean resource concurrency "
             f"{report.mean_concurrency:.2f})"]
    tracks = sorted(report.tracks, key=lambda t: -t.busy_seconds)
    if top is not None:
        tracks = tracks[:top]
    width = max([len(f"{t.pid}/{t.tid}") for t in tracks] or [8])
    lines.append(f"  {'track':<{width}s} {'class':>7s} {'busy':>7s} "
                 f"{'blocked':>9s} {'idle':>9s} {'spans':>6s}")
    for track in tracks:
        label = f"{track.pid}/{track.tid}"
        lines.append(
            f"  {label:<{width}s} {track.resource_class:>7s} "
            f"{track.busy_fraction:6.1%} "
            f"{_ms(track.blocked_seconds)} {_ms(track.idle_seconds)} "
            f"{track.spans:6d}")
    for phase in report.phases:
        check = ("" if phase.agrees is None
                 else ("  [matches scheduler]" if phase.agrees
                       else f"  [scheduler said {phase.recorded}]"))
        busiest = sorted(phase.utilization.items(),
                         key=lambda item: -item[1])[:3]
        detail = ", ".join(f"{name} {value:.1%}"
                           for name, value in busiest)
        lines.append(f"  phase {phase.pid}/{phase.name} "
                     f"[{_ms(phase.start).strip()}, "
                     f"{_ms(phase.end).strip()}] ms: "
                     f"bound by {phase.bound_by} ({detail}){check}")
    return "\n".join(lines)


def format_diff(diff: TraceDiff, top: int = 10) -> str:
    """Attribution table: which spans moved the end-to-end number."""
    lines = [f"trace diff of '{diff.root}': "
             f"{_ms(diff.baseline_seconds).strip()} ms -> "
             f"{_ms(diff.current_seconds).strip()} ms "
             f"({diff.delta_pct:+.1f}%)"]
    rows = [row for row in diff.top(top)
            if row.delta_seconds != 0.0 or row.status != "moved"]
    if not rows:
        lines.append("  no span group moved (zero-delta attribution)")
        return "\n".join(lines)
    width = max(len(row.name) for row in rows)
    denominator = diff.delta_seconds
    for row in rows:
        share = (f" {row.delta_seconds / denominator:6.1%} of delta"
                 if denominator != 0.0 else "")
        lines.append(
            f"  {row.delta_seconds * 1e3:+9.3f} ms  "
            f"{row.name:<{width}s}  [{row.category}] "
            f"x{row.baseline_count}->x{row.current_count} "
            f"{row.status}{share}")
    movers = ", ".join(
        f"{name} {delta * 1e3:+.3f} ms"
        for name, delta in sorted(diff.class_deltas.items(),
                                  key=lambda item: -abs(item[1]))[:4]
        if delta != 0.0)
    if movers:
        lines.append(f"  resource classes moved: {movers}")
    return "\n".join(lines)


def format_analysis(analysis: TraceAnalysis, top: int = 10) -> str:
    """The full ASCII report ``cli analyze`` prints."""
    parts = [format_critical_path(analysis.path, top=top),
             "",
             format_utilization(analysis.utilization, top=top)]
    if analysis.diff is not None:
        parts += ["", format_diff(analysis.diff, top=top)]
    return "\n".join(parts)
