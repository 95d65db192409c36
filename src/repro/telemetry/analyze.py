"""Trace analytics: critical paths, utilization attribution, trace diffs.

The recording layers (:class:`~repro.telemetry.spans.Tracer`, the
metrics registry, the SLO monitor) can say *what* happened; this module says
*why a number is what it is*.  Three analyses over a finished trace (a
live :class:`Tracer` or Chrome-trace JSON), as numpy passes over its
coded span columns (:meth:`Tracer.sim_columns`): no pass builds a
string, an args dict or a ``Span`` per span.  One sort puts the spans
in the order :meth:`Tracer.finished_spans` returns them, and every pass
keeps it.  Every sum adds its terms left to right in that order, as
``np.bincount`` adds weights into bins or ``+=`` adds, never with
``np.sum``'s pairwise adds or the builtin ``sum()``, which compensates
from Python 3.12.  So the bytes do not depend on the interpreter, nor
on whether the spans were recorded in bulk or one at a time:

* **critical path** — starting from the end of the root span, repeatedly
  hop to the span whose completion unblocked the current instant (the
  latest-finishing span at the cursor).  Every placement decision in the
  simulated stack starts either when its dependency finished or when a
  resource freed, and both leave a span ending at exactly that time, so
  the backward chain tiles the root span gap-free: the ordered hops with
  per-hop self-time *are* the end-to-end latency, attributed.  The hop
  records are built only when read.
* **utilization attribution** — per-track busy/idle/blocked fractions, a
  concurrency histogram over the root window, and a per-phase "bound by"
  verdict recomputed from the spans alone, cross-checked against the
  ``bottleneck`` the scheduler recorded on its run span.
* **trace diff** — two traces of the same scenario aligned by span
  ``(name, category)`` structure; the end-to-end delta is attributed to
  the top-k span groups that moved.  Rollups (the diff's input, built
  when an analysis's ``rollup`` is read) are JSON documents, so a
  committed rollup can serve as the baseline of a later diff without
  re-running old code.

Everything here is read-only over recorded spans: analyzing a run can
never change its results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .export import load_trace
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


def _codes(values: List) -> Tuple[List, np.ndarray]:
    """The distinct values in str order, and each value's index there."""
    distinct = sorted(set(values))
    index = {value: code for code, value in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), np.intp,
                                 len(values))


def _changes(values: np.ndarray) -> np.ndarray:
    """True on the first row and on each row whose value differs from
    the row before."""
    changes = np.ones(len(values), dtype=bool)
    changes[1:] = values[1:] != values[:-1]
    return changes


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative int keys,
    narrowed to the least type that holds them: numpy radix-sorts keys
    of 16 bits or fewer."""
    return np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))),
                      kind="stable")


def _group_totals(keys: np.ndarray, *columns: np.ndarray
                  ) -> Tuple[List[int], List[int], List[List[float]]]:
    """Per distinct key (a non-negative int), in ascending order: the
    key, its row count and, per column, its values added left to right
    in row order from 0.0, as ``np.bincount`` adds each row's weight to
    its key's bin."""
    counts = np.bincount(keys)
    present = np.flatnonzero(counts)
    return present.tolist(), counts[present].tolist(), [
        np.bincount(keys, column, len(counts))[present].tolist()
        for column in columns]


class _Trace:
    """A trace's finished sim-time spans as numpy columns, stable-sorted
    by ``(start, pid, tid, name)`` as :meth:`Tracer.finished_spans` sorts
    them (ties keep recording order).  Names and categories are codes
    into sorted lists, remapped from the columns' own tables; ``ties``
    ranks ``(start, pid, tid, name)``, equal for equal keys; each row's
    args dict is ``arg_table[arg_codes[row]]``, without the row's
    ``ready`` column (see :class:`~repro.telemetry.spans.SpanColumns`)."""

    def __init__(self, columns: SpanColumns) -> None:
        (self.labels, names, categories, self.arg_table, _, name_codes,
         starts, ends, tracks, category_codes, arg_codes, ready) = columns
        _, rank = _codes(self.labels)  # each track's place in label order
        self.name_list, names = _codes(names)
        self.category_list, categories = _codes(categories)
        names, categories = names[name_codes], categories[category_codes]
        # The one sort, as two stable sorts of int keys: by (track rank,
        # name), then by each start's rank among the distinct starts,
        # which a quicksort finds (numpy merge-sorts floats).
        ties = rank[tracks] * len(self.name_list) + names
        by_start = np.argsort(starts)
        start_ranks = np.empty(len(starts), dtype=np.intp)
        start_ranks[by_start] = np.cumsum(_changes(starts[by_start]))
        order = _stable_order(ties)
        order = order[_stable_order(start_ranks[order])]
        self.names, self.categories = names[order], categories[order]
        self.tracks, self.starts = tracks[order], starts[order]
        self.ends, self.arg_codes = ends[order], arg_codes[order]
        self.ready = ready[order]
        self.durations = self.ends - self.starts
        ties = ties[order]
        self.ties = np.cumsum(_changes(self.starts) | _changes(ties))

    def category_mask(self, members: Iterable[str]) -> np.ndarray:
        """True on the spans whose category is one of ``members``."""
        return np.array([category in members for category
                         in self.category_list], dtype=bool)[self.categories]

    def name_mask(self, name: str) -> np.ndarray:
        """True on the spans named ``name``."""
        return self.names == (self.name_list.index(name)
                              if name in self.name_list else -1)


def _find_root(trace: _Trace, name: Optional[str]) -> Tuple[int, Span]:
    """The end-to-end span the analyses anchor on, and its index.

    With ``name``, the longest sim-time span of that name.  Otherwise
    the longest span of a root category (``run``/``fleet``); if none
    exists — e.g. a hand-built trace — a synthetic span covering the
    hull of all sim-time spans (index -1).  Ties go to the first span.
    The returned span carries no args.
    """
    if not len(trace.names):
        raise ValueError("trace has no finished sim-time spans")
    if name is not None and name not in trace.name_list:
        raise ValueError(f"no sim-time span named '{name}'")
    masks = ([trace.name_mask(name)] if name is not None else
             [trace.category_mask((category,)) for category
              in _ROOT_CATEGORIES])
    for mask in masks:
        indices = np.flatnonzero(mask)
        if len(indices):
            index = int(indices[np.argmax(trace.durations[indices])])
            return index, Span(
                trace.name_list[trace.names[index]],
                float(trace.starts[index]), float(trace.ends[index]),
                *trace.labels[trace.tracks[index]],
                trace.category_list[trace.categories[index]], SIM_CLOCK)
    return -1, Span(name="(trace)", start=float(trace.starts[0]),
                    end=float(trace.ends[np.argmax(trace.ends)]),
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
        """Sum of per-hop self time (== root duration, gaps included),
        added left to right from int 0 as ``sum()`` adds before 3.12."""
        return reduce(add, self._self_seconds(), 0)

    def _self_seconds(self) -> Iterable[float]:
        return (hop.self_seconds for hop in self.hops)

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


class _WalkedPath(CriticalPath):
    """A path as :func:`_critical_path` walks it: columns of each hop's
    row (-1 when idle), name, track, category and args codes, start, end
    and self time, in time order, from which ``hops`` is built when
    first read."""

    def __init__(self, trace: _Trace, root_span: Span, gap_seconds: float,
                 rows: np.ndarray, *columns: np.ndarray) -> None:
        # Frozen fields, set the way the dataclass sets them; the path
        # keeps its hops' codes and the tables, not the trace's columns.
        self.__dict__.update(
            root_name=root_span.name, root_pid=root_span.pid,
            root_seconds=root_span.duration, gap_seconds=gap_seconds,
            _tables=(trace.name_list, trace.labels, trace.category_list,
                     trace.arg_table, root_span),
            _columns=(rows, trace.names[rows], trace.tracks[rows],
                      trace.categories[rows], trace.arg_codes[rows],
                      *columns))

    def _self_seconds(self) -> List[float]:
        return self._columns[-1].tolist()

    @cached_property
    def hops(self) -> Tuple[CriticalHop, ...]:
        # Each hop's strings, gathered from tables that hold the idle
        # hop's value as one more entry.
        name_list, labels, category_list, arg_table, root = self._tables
        (rows, names, tracks, categories, arg_codes, starts, ends,
         seconds) = self._columns
        codes, args_of = np.unique(arg_codes, return_inverse=True)
        args = [arg_table[code] for code in codes.tolist()]
        strings = [
            np.array(table + [extra], dtype=object)[
                np.where(rows < 0, len(table), column)].tolist()
            for column, table, extra in (
                (names, name_list, IDLE_HOP),
                (tracks, [pid for pid, _ in labels], root.pid),
                (tracks, [tid for _, tid in labels], root.tid),
                (categories, category_list, "idle"),
                (args_of, [str(one.get("kind", "")) for one in args], ""),
                (args_of, [str(one.get("resource", "")) for one in args],
                 ""))]
        return tuple(map(CriticalHop._make, zip(
            *strings[:4], starts.tolist(), ends.tolist(), seconds.tolist(),
            *strings[4:])))


def _critical_path(trace: _Trace, root_index: int, root_span: Span
                   ) -> _WalkedPath:
    """Chain the blocking predecessors of the end-to-end span.

    Walks backward from the root's end: at every cursor the blocking
    span is the latest-finishing span at (or before) that instant; ties
    prefer the latest-starting (most specific) span, so leaf segments
    win over the umbrella spans that merely contain them.  A cursor no
    span reaches produces a synthetic :data:`IDLE_HOP` — on nominal
    simulator traces the chain is gap-free by construction.  A blocker
    that starts at or after the cursor (shorter than the slack) explains
    no time before it and is dropped.

    The step at a cursor depends on the cursor alone, and a hop moves
    the cursor to its start: the steps at all distinct starts are found
    at once, and the walk follows one step to the next.  An idle step
    moves the cursor to an end: the first finds the steps at all ends.
    """
    root_start, root_end = root_span.start, root_span.end
    low = root_start + DEFAULT_EPSILON
    mask = ((trace.durations > 0.0) & (trace.ends > low)
            & (trace.starts < root_end - DEFAULT_EPSILON)
            & ~trace.category_mask(_NOT_BLOCKERS))
    if root_index >= 0:
        mask[root_index] = False
    # In row order the clipped starts ascend: a cursor per distinct
    # value, then the root's end.
    candidates = np.flatnonzero(mask)
    lowers = np.maximum(trace.starts[candidates], root_start)
    fresh = _changes(lowers)
    cursors = np.append(lowers.compress(fresh), root_end)
    # By end, after the root's start: a candidate ending there, starting
    # before any cursor and ranked lowest, for a step that finds nothing
    # else to idle back to.  The highest rank wins: the tie rank (the
    # latest start, then track, then name), then the later candidate.
    # ``reach`` is where the ends within the slack below each end begin.
    by_end = np.argsort(trace.ends[candidates], kind="stable")
    candidates = np.append(-1, candidates[by_end])
    count = len(candidates)
    ends, starts = trace.ends[candidates], trace.starts[candidates]
    ranks = trace.ties[candidates] * count + np.arange(count)
    ends[0], starts[0], ranks[0] = root_start, -np.inf, 0
    reach = np.maximum.accumulate(np.where(_changes(ends),
                                           np.arange(count), 0))
    chained = np.flatnonzero(ends[reach - 1] >= ends - DEFAULT_EPSILON)
    reach[chained] = np.searchsorted(ends, ends[chained] - DEFAULT_EPSILON)
    # ``tops[k, i]``: the highest rank over candidates i .. i + 2**k - 1,
    # up to the longest window the walk reads, one reach long.
    tops = np.full((np.frexp((np.arange(count) - reach).max() + 1)[1],
                    count), -1)
    tops[0] = ranks
    for level in range(1, len(tops)):
        half = 1 << (level - 1)
        tops[level, :-half] = np.maximum(tops[level - 1, :-half],
                                         tops[level - 1, half:])
    # After a hop, the step at its start; -1 at the root's start.
    after_hop = np.append(-1, (np.cumsum(fresh) - 1)[by_end])
    after_hop = np.where(cursors[after_hop] > low, after_hop, -1)

    def scan(cursors: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                           List[int]]:
        """The step at each cursor: its blocker, whether it idles, and
        the step after it (-1 - c after idling back to candidate c).

        The window opens at the last end within the slack after the
        cursor and skips candidates that start at or after the cursor:
        they explain no time before it, and their tie rank (start first)
        would outrank the rest, so skipping them is dropping them.  Only
        candidates ending after the cursor can start there; below them
        ``tops`` gives the window's best.  The window moves down in
        rounds while it holds no candidate to keep, or while the best
        one's end reaches lower."""
        best = np.searchsorted(ends, cursors + DEFAULT_EPSILON, "right") - 1
        by_cursor = best.copy()
        over = np.flatnonzero(ends[best] > cursors)
        by_cursor[over] = np.searchsorted(ends, cursors[over], "right") - 1
        active, highs = np.arange(len(cursors)), best
        lows, key = reach[highs], np.full(len(cursors), -1)
        while len(active):
            mids = np.minimum(by_cursor[active], highs)
            whole = np.flatnonzero(mids >= lows)
            levels = np.frexp(mids[whole] - lows[whole] + 1)[1] - 1
            key[whole] = np.maximum(key[whole], np.maximum(
                tops[levels, lows[whole]],
                tops[levels, mids[whole] + 1 - np.left_shift(1, levels)]))
            for at in np.flatnonzero(mids < highs).tolist():
                rows = slice(max(mids[at] + 1, lows[at]), highs[at] + 1)
                kept = ranks[rows][starts[rows] < cursors[active[at]]]
                key[at] = max(key[at], kept.max(initial=-1))
            best[active] = key % count
            below = np.where(key < 0, lows - 1, best[active])
            moved = np.flatnonzero(reach[below] < lows)
            active, key, highs = active[moved], key[moved], lows[moved] - 1
            lows = reach[below[moved]]
        idle = ends[best] < cursors - DEFAULT_EPSILON
        return best, idle, np.where(idle, -1 - best,
                                    after_hop[best]).tolist()

    best, idle, follow = scan(cursors)
    steps: List[int] = []
    step = len(cursors) - 1 if root_end > low else -1
    while True:
        while step >= 0:
            steps.append(step)
            step = follow[step]
        if step == -1:
            break
        # Idled back to candidate c's end: at the first idle step, the
        # steps at every candidate's end join the table.
        if len(follow) == len(cursors):
            more = scan(ends)
            best, idle = np.append(best, more[0]), np.append(idle, more[1])
            follow += more[2]
        step = len(cursors) - 1 - step
    # Each step's hop, in time order.  The cursor a hop leaves is its
    # own start, clipped, or the end an idle hop went back to, not its
    # step's cursor (the first of equal starts: -0.0 for 0.0, say); the
    # cursor it came from is the one the next hop left.
    steps = np.array(steps[::-1], dtype=np.intp)
    best, idle = best[steps], idle[steps]
    hop_ends = ends[best]
    hop_starts = np.where(idle, hop_ends, starts[best])
    lowers = np.where(idle, hop_starts, np.maximum(hop_starts, root_start))
    cursors = np.append(lowers[1:], root_end)
    hop_ends[idle] = cursors[idle]
    seconds = cursors - lowers
    return _WalkedPath(trace, root_span,
                       reduce(add, seconds[idle][::-1].tolist(), 0.0),
                       np.where(idle, -1, candidates[best]), hop_starts,
                       hop_ends, seconds)


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


def _array_type(tid: str) -> str:
    """``T`` for a track named like an array timeline (``"<count>x
    <size>x<size> <T>[<i>]"``) or a link channel (``"channel:<T>"``);
    "" for any other track."""
    head = tid.split("[", 1)[0].strip()
    return (tid.split(":", 1)[1] if tid.startswith("channel:") else
            head.rsplit(" ", 1)[-1] if " " in head else "")


def _phase_verdicts(trace: _Trace) -> List[PhaseVerdict]:
    """Recompute "bound by" per scheduler run span, from spans alone.

    Each ``orchestrator.run`` span is one phase.  Busy time per array
    group and link channel comes from the ``exec``/``stream``/``host``
    spans inside the phase window on the phase's pid (a recovery shard
    runs a second, offset phase on a surviving pid); idle resources
    contribute through the inventory counts the run span carries.
    Phases without that inventory metadata are skipped.
    """
    phases = np.flatnonzero(trace.category_mask(("run",))
                            & trace.name_mask("orchestrator.run"))
    if not len(phases):
        return []
    # What each busy span's time counts towards, from its category and
    # its track's array type: ``host``, ``array:T`` or ``link:T`` ("" for
    # nothing), as a code; and each busy span's pid code.
    busy = np.flatnonzero(trace.category_mask(("exec", "stream", "host")))
    types, type_of = _codes([_array_type(tid) for _, tid in trace.labels])
    resources, resource_of = _codes([
        "host" if category == "host" else
        f"{CATEGORY_CLASSES[category]}:{array_type}"
        if category in ("exec", "stream") and array_type else ""
        for category in trace.category_list for array_type in types])
    resource_of = resource_of[trace.categories[busy] * len(types)
                              + type_of[trace.tracks[busy]]]
    _, pid_codes = _codes([pid for pid, _ in trace.labels])
    pid_of = pid_codes[trace.tracks[busy]]
    verdicts: List[PhaseVerdict] = []
    for phase in phases.tolist():
        args = trace.arg_table[trace.arg_codes[phase]]
        host_slots = args.get("host_slots")
        if not isinstance(host_slots, int):
            continue
        counts = {key[len("arrays_"):].upper(): value
                  for key, value in args.items()
                  if key.startswith("arrays_") and isinstance(value, int)}
        pid = trace.labels[trace.tracks[phase]][0]
        start, end = float(trace.starts[phase]), float(trace.ends[phase])
        duration = end - start
        inside = np.flatnonzero(
            (pid_of == pid_codes[trace.tracks[phase]])
            & (trace.starts[busy] >= start - DEFAULT_EPSILON)
            & (trace.ends[busy] <= end + DEFAULT_EPSILON))
        keys, _, (seconds,) = _group_totals(
            resource_of[inside], trace.durations[busy[inside]])
        busy_seconds = dict(zip(map(resources.__getitem__, keys), seconds))

        def share(resource: str, count: int = 1) -> float:
            return (busy_seconds.get(resource, 0.0) / (duration * count)
                    if duration > 0 and count > 0 else 0.0)

        utilization = {"host": share("host", host_slots)}
        for array_type, count in counts.items():
            utilization[f"array:{array_type}"] = share(f"array:{array_type}",
                                                       count)
            utilization[f"link:{array_type}"] = share(f"link:{array_type}")
        recorded = args.get("bottleneck")
        verdicts.append(PhaseVerdict(
            name="orchestrator.run", pid=pid, start=start, end=end,
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
        return reduce(add, (level * share for level, share
                            in self.concurrency.items()), 0)

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
    horizon = root_span.duration
    root_start, root_end = root_span.start, root_span.end
    spans = np.flatnonzero(trace.category_mask(CATEGORY_CLASSES)
                           & (trace.ends > root_start)
                           & (trace.starts < root_end))
    tracks = trace.tracks[spans]
    # A track carries one class in practice; mixed tracks (e.g. a fleet
    # instance running shard + recovery) take the least class name.
    classes = sorted(set(CATEGORY_CLASSES.values()))
    class_of = np.array([classes.index(CATEGORY_CLASSES.get(category,
                                                            "thread"))
                         for category in trace.category_list])
    track_class = np.full(len(trace.labels), len(classes) - 1)
    np.minimum.at(track_class, tracks, class_of[trace.categories[spans]])
    on_resources = spans[np.flatnonzero(
        track_class[tracks] != classes.index("thread"))]
    concurrency = _concurrency(trace.starts[on_resources],
                               trace.ends[on_resources], root_start,
                               root_end)
    # Each span's ready time: its ``ready`` column, or where that is NaN
    # the ``ready`` its args dict holds, read once per table entry those
    # rows use.  A missing or non-numeric one is +inf, which
    # ``max(start - ready, 0.0)`` turns into no blocked time.
    ready = trace.ready[spans]
    from_args = np.flatnonzero(np.isnan(ready))
    if len(from_args):
        codes = trace.arg_codes[spans[from_args]]
        table = np.full(len(trace.arg_table), math.inf)
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            value = trace.arg_table[code].get("ready")
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                 bool):
                table[code] = float(value)
        ready[from_args] = table[codes]
    blocked = np.maximum(trace.starts[spans] - ready, 0.0)
    keys, counts, (busy, blocked) = _group_totals(
        tracks, trace.durations[spans], blocked)
    usage = [TrackUsage(*trace.labels[track], classes[track_class[track]],
                        busy_seconds, blocked_seconds, horizon, count)
             for track, count, busy_seconds, blocked_seconds
             in zip(keys, counts, busy, blocked)]
    usage.sort(key=lambda track: (track.pid, track.tid))
    return UtilizationReport(
        horizon_seconds=horizon, tracks=tuple(usage),
        concurrency=concurrency, phases=tuple(_phase_verdicts(trace)))


def _concurrency(starts: np.ndarray, ends: np.ndarray, root_start: float,
                 root_end: float) -> Dict[int, float]:
    """Share of the root window spent at each resource-concurrency level.

    Clips the spans (``starts`` ascending) to the root window and sweeps
    their starts (``+1``) and ends (``-1``) in time order, ends first at
    equal times: the sorted ends and the starts in one stable merge, the
    level as the running count.  Each level's shares add in time order.
    """
    horizon = root_end - root_start
    if horizon <= 0:
        return {}
    ups, downs = np.maximum(starts, root_start), np.minimum(ends, root_end)
    kept = np.flatnonzero(downs > ups)
    events = np.concatenate((np.sort(downs[kept]), ups[kept]))
    merged = np.argsort(events, kind="stable")
    # Time from each event to the next (the first from the root's start,
    # the last to its end), at the level the events before it reached:
    # their starts less their ends.
    gaps = np.diff(np.concatenate(([root_start], events[merged],
                                   [root_end])))
    moved = np.flatnonzero(gaps > 0.0)
    levels = moved - 2 * np.concatenate(
        ([0], np.cumsum(merged < len(kept))))[moved]
    keys, _, (shares,) = _group_totals(levels, gaps[moved] / horizon)
    # Each level in the order its first gap comes.
    first = np.full(keys[-1] + 1, len(levels))
    np.minimum.at(first, levels, np.arange(len(levels)))
    return dict(sorted(zip(keys, shares), key=lambda item: first[item[0]]))


# -- rollups & trace diff ------------------------------------------------

def _rollup(columns: Tuple, path: _WalkedPath, report: UtilizationReport
            ) -> Dict[str, object]:
    """The rollup document :func:`build_rollup` describes, from the span
    columns an analysis keeps for it (see :class:`_Analysis`)."""
    (name_list, category_list, names, categories, durations, root_index,
     root_span) = columns
    kept = np.array([category not in _ROOT_CATEGORIES
                     for category in category_list])[categories]
    if root_index >= 0:
        kept[root_index] = False
    spans = np.flatnonzero(kept)
    width = len(category_list)
    keys, counts, (totals,) = _group_totals(
        names[spans] * width + categories[spans], durations[spans])
    # The path's hops grouped the same way, idle hops as one more key.
    rows, hop_names, _, hop_categories, *_, seconds = path._columns
    idle = len(name_list) * width
    hop_keys, hop_counts, (hop_totals,) = _group_totals(
        np.where(rows < 0, idle, hop_names * width + hop_categories),
        seconds)
    critical = sorted(
        ((IDLE_HOP, "idle") if key == idle else
         (name_list[key // width], category_list[key % width]),
         count, total)
        for key, count, total in zip(hop_keys, hop_counts, hop_totals))
    return {
        "schema": ROLLUP_SCHEMA,
        "schema_version": ROLLUP_SCHEMA_VERSION,
        "root": root_span.name,
        "root_seconds": root_span.duration,
        "spans": [
            {"name": name_list[key // width],
             "category": category_list[key % width],
             "count": count, "total_seconds": total}
            for key, count, total in zip(keys, counts, totals)],
        "classes": report.class_busy(),
        "critical": [
            {"name": name, "category": category,
             "count": count, "self_seconds": total}
            for (name, category), count, total in critical],
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


class _Analysis(TraceAnalysis):
    """What :func:`analyze_trace` returns: ``rollup`` is built when first
    read, by a diff or :func:`build_rollup`, from the span columns the
    analysis keeps for it."""

    def __init__(self, trace: _Trace, root: Optional[str]) -> None:
        root_index, root_span = _find_root(trace, root)
        # Frozen fields, set the way the dataclass sets them.
        self.__dict__.update(
            path=_critical_path(trace, root_index, root_span),
            utilization=_utilization(trace, root_span), diff=None,
            _spans=(trace.name_list, trace.category_list, trace.names,
                    trace.categories, trace.durations, root_index,
                    root_span))

    @cached_property
    def rollup(self) -> Dict[str, object]:
        return _rollup(self._spans, self.path, self.utilization)


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
    analysis = _Analysis(_Trace(load_trace(source).sim_columns()), root)
    if against is not None:
        # The frozen diff field, set the way the others are.
        analysis.__dict__["diff"] = diff_rollups(
            analyze_trace(against, root=root).rollup, analysis.rollup)
    return analysis


def build_rollup(source: Union[Tracer, Dict[str, object], str],
                 root: Optional[str] = None) -> Dict[str, object]:
    """Aggregate a trace into a compact, diffable JSON document.

    Spans group by ``(name, category)``; the rollup carries per-group
    count and total duration, per-class busy seconds, the root
    duration, and the critical path aggregated the same way.  Two runs
    of the same scenario align by these keys even when thread/track
    placement differs.  It is the ``rollup`` of :func:`analyze_trace`'s
    analysis, which builds it when read.
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
    hops = path.hops
    shown = hops if top is None else [hops[i] for i in sorted(sorted(
        range(len(hops)), key=lambda i: -hops[i].self_seconds)[:top])]
    width = max([len(hop.name) for hop in shown] or [8])
    total = path.total_seconds or 1.0
    for hop in shown:
        where = f"{hop.pid}/{hop.tid}"
        lines.append(
            f"  {_ms(hop.self_seconds)} ms {hop.self_seconds / total:6.1%}"
            f"  {hop.name:<{width}s}  [{hop.category}] {where}")
    if top is not None and len(hops) > len(shown):
        rest = path.total_seconds - reduce(
            add, (hop.self_seconds for hop in shown), 0)
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
