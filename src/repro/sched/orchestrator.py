"""Multithreaded orchestration and scheduling of dataflows onto ProSE.

Implements the paper's Figure 8 execution model: the inference batch is
split across software threads; each thread walks its own copy of the
per-inference dataflow DAG *serially* (a thread dispatches one dataflow at
a time), and parallelism comes from many threads running on the collection
of heterogeneous systolic arrays concurrently.

Every dataflow dispatch performs a host-accelerator transfer through one of
three per-type I/O buffers guarded by mutex locks; transfers therefore
serialize per array type, and the per-dispatch lock overhead grows with the
thread count — the contention/bubble trade-off that makes 32 threads the
sweet spot.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch.config import HardwareConfig
from ..arch.interconnect import DISPATCH_OVERHEAD_SECONDS
from ..arch.timing import dataflow_signature, time_dataflow
from ..dataflow.graph import DataflowGraph, HostTask, Node
from ..dataflow.patterns import ArrayType, Dataflow
from ..model.config import BertConfig
from ..telemetry import Histogram, MetricsRegistry, Tracer
from ..telemetry.analyze import bottleneck_of
from .host import HostModel

#: Default growth of per-dispatch mutex overhead per extra thread.
CONTENTION_COEFFICIENT = 0.06


@dataclass(frozen=True)
class TaskRecord:
    """One scheduled task, for timeline inspection (Figure 8 rendering)."""

    thread: int
    name: str
    kind: str
    ready: float
    start: float
    end: float
    resource: str


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of simulating one batched inference on ProSE.

    Attributes:
        makespan_seconds: time from first dispatch to last completion.
        batch: inferences completed.
        seq_len: tokens per inference.
        threads: software threads used.
        array_utilization: busy fraction per array type over the makespan.
        channel_utilization: link-channel busy fraction per array type.
        host_utilization: host pool busy fraction.
        total_stream_bytes: host-link traffic for the whole batch.
        total_dispatches: host-accelerator transfers performed.
        contention_seconds: total mutex/dispatch overhead incurred.
        kind_compute_seconds: accelerator compute demand per dataflow
            kind (where ProSE itself spends array time).
        task_log: per-task schedule records when requested.
    """

    makespan_seconds: float
    batch: int
    seq_len: int
    threads: int
    array_utilization: Dict[ArrayType, float]
    channel_utilization: Dict[ArrayType, float]
    host_utilization: float
    total_stream_bytes: int
    total_dispatches: int
    contention_seconds: float
    kind_compute_seconds: Dict[str, float] = field(default_factory=dict)
    task_log: Optional[Tuple[TaskRecord, ...]] = None

    @property
    def throughput(self) -> float:
        """Inferences per second."""
        return self.batch / self.makespan_seconds

    @property
    def bottleneck(self) -> str:
        """Which resource class limits this schedule.

        Exact utilization ties are broken deterministically: by resource
        class (array > link > host), then alphabetically within a class
        (see :func:`~repro.telemetry.analyze.bottleneck_of`).
        """
        utilization = {"host": self.host_utilization}
        for array_type, value in self.array_utilization.items():
            utilization[f"array:{array_type.value}"] = value
        for array_type, value in self.channel_utilization.items():
            utilization[f"link:{array_type.value}"] = value
        return bottleneck_of(utilization)

    @property
    def compute_bound(self) -> bool:
        """True when an array group, not a link channel, is the bottleneck."""
        return self.bottleneck.startswith("array")


#: One way to place a dataflow: ``(array, link channel, array size,
#: accelerator compute seconds, DataflowTiming, segments)``, where the
#: array and channel are resource indices and each segment is folded to
#: ``(is_host, channel_hold, duration)``.
Candidate = Tuple

#: What each of a task's spans reads its times and track from: a host
#: segment's reservation (on its host slot), a channel hold (from the
#: reservation's start, on the link channel), an array hold (the
#: reservation, on the array) or the task itself (on its thread).
_HOST, _STREAM, _EXEC, _TASK = range(4)


def _fit(starts: List[float], ends: List[float], earliest: float,
         duration: float) -> float:
    """Earliest start ≥ ``earliest`` of an idle gap of ``duration``.

    ``starts`` and ``ends`` are one resource's busy runs: sorted,
    disjoint, and coalesced (:func:`_reserve` merges runs that touch
    exactly), so a resource with no interior gap holds one run.  Callers
    answer the O(1) case ``earliest >= ends[-1]`` (the answer is
    ``earliest``) inline and call this only below the last run end.

    A zero-width request starts at ``earliest`` unless ``earliest`` lies
    strictly inside a busy run; then it starts at that run's end.
    """
    if earliest > starts[-1]:
        return ends[-1]           # inside the last run: no search
    index = bisect_right(ends, earliest)
    if starts[index] - earliest >= duration:
        return earliest
    candidate = ends[index]
    for index in range(index + 1, len(starts)):
        if starts[index] - candidate >= duration:
            return candidate
        candidate = ends[index]
    return candidate


def _reserve(starts: List[List[float]], ends: List[List[float]],
             last: List[float], busy: List[float], resource: int,
             start: float, duration: float) -> float:
    """Hold ``resource`` for ``duration`` from ``start``; returns the end.

    ``start`` must come from :func:`_fit` (or the ``last`` fast path)
    with the same ``duration``: no overlap check is repeated.  A run that
    touches a neighbour exactly merges into it.  A zero-width hold
    (including a duration that underflows against ``start``) occupies
    nothing and adds no busy time.
    """
    end = start + duration
    if end <= start:
        return end
    tail = last[resource]
    if start > tail:
        starts[resource].append(start)
        ends[resource].append(end)
        last[resource] = end
    elif start == tail:
        ends[resource][-1] = end
        last[resource] = end
    else:
        # Backfill into an interior gap, which always lies before the
        # last run, so ``last`` is unchanged.
        runs_start, runs_end = starts[resource], ends[resource]
        index = bisect_left(runs_start, start)
        if index and runs_end[index - 1] == start:
            if runs_start[index] == end:
                runs_end[index - 1] = runs_end.pop(index)
                del runs_start[index]
            else:
                runs_end[index - 1] = end
        elif runs_start[index] == end:
            runs_start[index] = start
        else:
            runs_start.insert(index, start)
            runs_end.insert(index, end)
    busy[resource] += duration
    return end


def _replay(tasks: np.ndarray, names: List[str], thread_nodes: List[Tuple],
            thread_plans: List[List], record_tasks: bool,
            histogram: Optional[Histogram]
            ) -> Optional[Tuple[TaskRecord, ...]]:
    """Derive task records and task latencies from a placement log's
    task rows (see :meth:`Orchestrator.run`).

    Returns:
        The task records when ``record_tasks`` is set, else ``None``.
    """
    if histogram is not None:
        histogram.observe_many(tasks[:, 4] - tasks[:, 3])
    if not record_tasks:
        return None
    records = []
    for thread, index, ready, start, end, array in tasks.tolist():
        thread, index, array = int(thread), int(index), int(array)
        records.append(TaskRecord(
            thread=thread, name=thread_nodes[thread][index].name,
            kind=thread_plans[thread][index][1] if array >= 0 else "host",
            ready=ready, start=start, end=end,
            resource=names[array] if array >= 0 else "host"))
    return tuple(records)


def _trace(tracer: Tracer, tasks: np.ndarray, marks: np.ndarray,
           names: List[str], sizes: List[int], thread_nodes: List[Tuple],
           thread_plans: List[List], sub_batches: List[int],
           trace_pid: str, makespan: float,
           run_args: Dict[str, object]) -> None:
    """Fill the tracer's span columns from a placement log, in one call.

    Tasks are visited in dispatch order, and ``names`` maps a resource
    index to its track name (``sizes`` to its array size).  Each task's
    reservations become spans before the task's own span: host-side
    segments on the chosen host slot's track (category ``host``),
    channel holds on the link track (``stream``), array holds on the
    array's track (``exec``).  The ``orchestrator.run`` span over
    ``[0, makespan]`` comes last.

    A task's span names, categories, reservation args and channel holds
    are fixed by its sub-batch, node and array size, so each such
    template is laid out once (:func:`_layout`), and its task args once
    per template and resource, with the task's ready time in the
    ``ready`` column.  One gather over the concatenated layouts then
    builds every column.
    """
    threads, nodes, arrays = (tasks[:, column].astype(np.intp)
                              for column in (0, 1, 5))
    subs = np.array(sub_batches)[threads]
    task_sizes = np.append(sizes, 0)[arrays]  # a host task's array is -1
    _, first, template_of = np.unique(
        (subs * (nodes.max(initial=0) + 1) + nodes)
        * (task_sizes.max(initial=0) + 1) + task_sizes,
        return_index=True, return_inverse=True)
    layout: List[Tuple] = []
    starts_at, span_counts, mark_counts, kinds = [], [], [], []
    for thread, index, array in zip(*(column[first].tolist() for column
                                      in (threads, nodes, arrays))):
        plan = thread_plans[thread][index]
        candidate = None if array < 0 else next(
            option for option in plan[0] if option[0] == array)
        spans = _layout(thread_nodes[thread][index], sub_batches[thread],
                        index, candidate)
        starts_at.append(len(layout))
        span_counts.append(len(spans))
        mark_counts.append(1 if candidate is None else len(candidate[5]))
        kinds.append("host" if candidate is None else plan[1])
        layout += spans
    (span_names, span_categories, span_args, sources, segments, holds,
     channels) = zip(*layout)
    names_of = {name: code for code, name in enumerate(dict.fromkeys(
        span_names + ("orchestrator.run",)))}
    categories_of = {category: code for code, category in enumerate(
        dict.fromkeys(span_categories + ("run",)))}
    # A layout row's args code; a task row has none (its args vary per
    # task and are coded below).
    arg_table = [args for args in span_args if args is not None]
    arg_codes = np.cumsum([args is not None for args in span_args]) - 1
    # Task args: one dict per template and resource.
    _, task_first, task_args = np.unique(
        template_of * (len(names) + 1) + arrays + 1,
        return_index=True, return_inverse=True)
    task_args += len(arg_table)
    for template, thread, index, array in zip(*(
            column[task_first].tolist()
            for column in (template_of, threads, nodes, arrays))):
        arg_table.append({"kind": kinds[template],
                          "resource": names[array] if array >= 0 else "host",
                          "sub_batch": sub_batches[thread], "ready": None,
                          "node": index})
    arg_table.append(run_args)

    # The gather: each task's spans are rows of its template's layout,
    # and each span's reservation a row of the marks.
    counts = np.array(span_counts)[template_of]
    owner = np.repeat(np.arange(len(tasks)), counts)
    row = np.arange(len(owner)) + np.repeat(
        np.array(starts_at)[template_of] - (np.cumsum(counts) - counts),
        counts)
    task_marks = np.array(mark_counts)[template_of]
    mark = ((np.cumsum(task_marks) - task_marks)[owner]
            + np.array(segments)[row])
    source = np.array(sources)[row]
    is_task = source == _TASK
    reserved = marks[mark, 0]
    resource_tracks = np.array([tracer.track(trace_pid, name)
                                for name in names])
    thread_tracks = np.array([tracer.track(trace_pid, f"thread{thread:02d}")
                              for thread in range(len(sub_batches))])
    tracks = np.where(is_task, thread_tracks[threads[owner]],
                      resource_tracks[np.select(
                          [source == _HOST, source == _STREAM],
                          [marks[mark, 2].astype(np.intp),
                           np.array(channels)[row]], arrays[owner])])
    ends = np.where(is_task, tasks[owner, 4], np.where(
        source == _STREAM, reserved + np.array(holds)[row], marks[mark, 1]))
    # The run span is the last row.
    tracer.add_spans(
        list(names_of), list(categories_of), arg_table,
        np.append(np.array([names_of[name] for name in span_names])[row],
                  names_of["orchestrator.run"]),
        np.append(np.array([categories_of[category] for category
                            in span_categories])[row], categories_of["run"]),
        np.append(np.where(is_task, task_args[owner], arg_codes[row]),
                  len(arg_table) - 1),
        np.append(np.where(is_task, tasks[owner, 3], reserved), 0.0),
        np.append(ends, makespan),
        np.append(tracks, tracer.track(trace_pid, "schedule")),
        np.append(np.where(is_task, tasks[owner, 2], np.nan), np.nan))


def _layout(node: Node, sub: int, index: int,
            candidate: Optional[Candidate]) -> List[Tuple]:
    """One task's spans in recording order, as ``(name, category, args,
    source, segment, channel hold, channel)``: one host span for a host
    task, else per segment of the dataflow placed by ``candidate`` one
    host span or a stream and an exec span; then the task span, whose
    args (``None`` here) vary per task."""
    if candidate is None:
        return [(node.name, "host", {"ops": len(node.ops),
                                     "flops": node.flops}, _HOST, 0, 0.0, 0),
                (node.name, "task", None, _TASK, 0, 0.0, 0)]
    _, channel, size, _, timing, segments = candidate
    array_type = node.array_type.value
    spans = []
    for segment_index, (segment, (is_host, hold, _)) in enumerate(
            zip(timing.segments, segments)):
        if is_host:
            spans.append((f"{node.name}:host{segment_index}", "host",
                          {"sub_batch": sub, "node": index}, _HOST,
                          segment_index, 0.0, 0))
            continue
        spans += [(f"{node.name}:xfer{segment_index}", "stream",
                   {"bytes": segment.stream_bytes, "sub_batch": sub,
                    "node": index, "array_type": array_type}, _STREAM,
                   segment_index, hold, channel),
                  (f"{node.name}:seg{segment_index}", "exec",
                   {"compute_seconds": segment.compute_seconds,
                    "array_size": size, "sub_batch": sub, "node": index,
                    "array_type": array_type}, _EXEC, segment_index, 0.0,
                   0)]
    spans.append((node.name, "task", None, _TASK, 0, 0.0, 0))
    return spans


class Orchestrator:
    """Cycle-level schedule simulator for a ProSE instance.

    Args:
        hardware: the accelerator configuration to simulate.
        host: host CPU model.
        contention_coefficient: per-extra-thread growth of dispatch cost;
            finite and non-negative.
        dispatch_overhead: base per-transfer software overhead in seconds;
            finite and non-negative.
    """

    def __init__(self, hardware: HardwareConfig,
                 host: Optional[HostModel] = None,
                 contention_coefficient: float = CONTENTION_COEFFICIENT,
                 dispatch_overhead: float = DISPATCH_OVERHEAD_SECONDS
                 ) -> None:
        for label, value in (("contention_coefficient",
                              contention_coefficient),
                             ("dispatch_overhead", dispatch_overhead)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{label} must be finite and non-negative, got {value}")
        self.hardware = hardware
        self.host = host or HostModel()
        self.contention_coefficient = contention_coefficient
        self.dispatch_overhead = dispatch_overhead

    # ------------------------------------------------------------------

    def run(self, config: BertConfig, batch: int, seq_len: int,
            threads: Optional[int] = None,
            record_tasks: bool = False,
            graph_builder=None,
            tracer: Optional[Tracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            trace_pid: str = "instance0") -> ScheduleResult:
        """Simulate one batched inference.

        One placement loop schedules every task.  When anything observes
        the run (``record_tasks``, ``tracer`` or ``metrics``), the loop
        also appends a few numbers per task and per reservation to a
        placement log, and the task records, spans and task-latency
        histogram are all derived from that log after the loop; the
        schedule itself never depends on who observes it.

        Args:
            config: the Protein BERT model.
            batch: inference batch size (split across threads).
            seq_len: input sequence length in tokens.
            threads: override the hardware's thread count (Figure 8 sweep).
            record_tasks: keep a per-task log (Gantt rendering).
            graph_builder: callable ``sub_batch -> DataflowGraph``
                overriding the default encoder graph — e.g. the
                encoder-decoder graph of
                :func:`repro.dataflow.seq2seq.build_seq2seq_graph`.
            tracer: optional span tracer.  Every task gets a span on its
                thread track and every reservation (array segment,
                link-channel hold, host slot) gets a span on its resource
                track, followed by one ``orchestrator.run`` span.
            metrics: optional registry accumulating dispatch counters,
                byte counters, per-task latency histograms, and final
                occupancy gauges.
            trace_pid: Perfetto process label for emitted spans (the
                multi-instance system passes ``instanceN``).

        Returns:
            A :class:`ScheduleResult` with makespan and utilizations.
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        if threads is not None and threads <= 0:
            raise ValueError(f"threads must be positive, got {threads}")
        thread_count = threads if threads is not None else self.hardware.threads
        thread_count = max(1, min(thread_count, batch))

        # Split the batch across threads as evenly as possible.
        base, extra = divmod(batch, thread_count)
        sub_batches = [base + (1 if t < extra else 0)
                       for t in range(thread_count)]
        if graph_builder is None:
            # Lazy import: parallel.memo reaches back into this module.
            from ..parallel.memo import cached_build_graph

            def graph_builder(sub: int) -> DataflowGraph:
                return cached_build_graph(config, batch=sub,
                                          seq_len=seq_len)
        graphs: Dict[int, DataflowGraph] = {}
        for sub in set(sub_batches):
            graphs[sub] = graph_builder(sub)

        # Every array, link channel and host slot is an index into the
        # parallel per-resource lists: busy-run starts and ends, the last
        # run end (the O(1) fit test) and busy seconds.
        names: List[str] = []
        arrays: Dict[ArrayType, List[Tuple[int, int]]] = {
            t: [] for t in ArrayType}
        for group in self.hardware.groups:
            for index in range(group.count):
                arrays[group.array_type].append((len(names), group.size))
                names.append(f"{group.label}[{index}]")
        channels: Dict[ArrayType, int] = {}
        for array_type in ArrayType:
            channels[array_type] = len(names)
            names.append(f"channel:{array_type.value}")
        slots = range(len(names), len(names) + self.host.slots)
        names.extend(f"host[{index}]" for index in range(self.host.slots))
        starts: List[List[float]] = [[] for _ in names]
        ends: List[List[float]] = [[] for _ in names]
        last = [float("-inf")] * len(names)
        busy = [0.0] * len(names)

        per_dispatch = self.dispatch_overhead * (
            1.0 + self.contention_coefficient * (thread_count - 1))
        # Plans are held per graph, by node position: a float is a
        # HostTask's duration, a tuple is a dataflow's (candidates, kind,
        # uniform).  Dataflow plans are built once per *content*
        # signature, so the identical encoder layers share one set of
        # timings.
        graph_plans: Dict[int, List[object]] = {
            sub: [None] * len(graph) for sub, graph in graphs.items()}
        content_plans: Dict[Tuple, Tuple] = {}
        pooled_members: Optional[List[Tuple[int, int]]] = None
        if self.hardware.pooled:
            # Homogeneous baseline: every array carries both LUT kinds and
            # can execute any dataflow (Table 2's 64×64 GELU+Exp row).
            pooled_members = [m for group in arrays.values() for m in group]
        total_bytes = 0
        total_dispatches = 0
        reservations = 0
        contention_seconds = 0.0
        kind_compute: Dict[str, float] = {}
        makespan = 0.0
        # The placement log, kept when anything observes the run, as two
        # flat lists of numbers: per task ``(thread, node, ready, start,
        # end, array)`` (array -1 for a host task), per reservation
        # ``(start, end, host slot)`` (slot -1 on the accelerator).
        tasks: Optional[List[float]] = (
            [] if record_tasks or tracer is not None or metrics is not None
            else None)
        marks = None if tasks is None else []

        # Earliest-ready-first list scheduling across threads.  Each thread
        # walks its own graph serially (Figure 8); at every step the thread
        # whose next dataflow becomes ready soonest dispatches next, which
        # is how the mutex-guarded I/O buffers hand out work in practice.
        # Per-thread node tuples, plan lists and lengths, hoisted out of
        # the loop so the per-dispatch accesses are plain indexing.
        thread_nodes = [graphs[sub].nodes for sub in sub_batches]
        thread_plans = [graph_plans[sub] for sub in sub_batches]
        thread_node_counts = [len(nodes) for nodes in thread_nodes]
        pointers = [0] * thread_count
        heap = [(0.0, t) for t in range(thread_count)]
        heapq.heapify(heap)
        while heap:
            # The heap key *is* the ready time: deps live in the same
            # thread's graph, the thread walks it serially in index order
            # and its clock never moves back, so every dep had finished
            # by the time the thread's previous node ended.
            ready, thread_index = heap[0]
            nodes = thread_nodes[thread_index]
            node_index = pointers[thread_index]
            plans = thread_plans[thread_index]
            plan = plans[node_index]
            if plan is None:
                node = nodes[node_index]
                if isinstance(node, HostTask):
                    # float() normalizes task_seconds' int 0 for op-less tasks:
                    # a float plan *is* the type tag for the host branch.
                    plan = float(self.host.task_seconds(node.ops))
                else:
                    content = dataflow_signature(node)
                    plan = content_plans.get(content)
                    if plan is None:
                        plan = self._plan(
                            node, pooled_members or arrays[node.array_type],
                            channels[node.array_type], per_dispatch)
                        content_plans[content] = plan
                plans[node_index] = plan
            if type(plan) is float:
                segments = ((True, plan, 0.0),)
                candidate = None
            else:
                candidates, kind, uniform = plan
                # The array that finishes the dataflow first; strict `<`
                # keeps the first of tied projections.  Uniform candidates
                # share one duration, so the first array that can start
                # right at `ready` is the minimum and ends the scan.
                candidate = None
                best_finish = 0.0
                for option in candidates:
                    array = option[0]
                    duration = option[3]
                    if ready >= last[array]:
                        fit = ready
                    else:
                        fit = _fit(starts[array], ends[array], ready,
                                   duration)
                    if uniform and fit == ready:
                        candidate = option
                        break
                    fit += duration
                    if candidate is None or fit < best_finish:
                        candidate = option
                        best_finish = fit
                array, channel, _, _, timing, segments = candidate
            clock = ready
            start = None
            for is_host, hold, duration in segments:
                reservations += 1
                if is_host:
                    # The host slot that can start first; ties keep the
                    # lowest index, and a slot free at `clock` ends the
                    # scan.
                    slot = -1
                    seg_start = 0.0
                    for option in slots:
                        if clock >= last[option]:
                            fit = clock
                        else:
                            fit = _fit(starts[option], ends[option], clock,
                                       hold)
                        if fit == clock:
                            slot, seg_start = option, fit
                            break
                        if slot < 0 or fit < seg_start:
                            slot, seg_start = option, fit
                    clock = _reserve(starts, ends, last, busy, slot,
                                     seg_start, hold)
                    if marks is not None:
                        marks += (seg_start, clock, slot)
                    continue
                # Channel and array are held from one instant: the least
                # start at or after `clock` where both fit, reached by
                # alternating fits.  Fits are monotone and idempotent, so
                # the order of the fits does not change that point, and
                # it is reached as soon as one fit keeps the start the
                # other chose.  The array goes first: its long runs mostly
                # carry the start past the channel's last end.
                if clock >= last[array]:
                    seg_start = clock
                else:
                    seg_start = _fit(starts[array], ends[array], clock,
                                     duration)
                for _ in range(10000):
                    if seg_start >= last[channel]:
                        break
                    fit = _fit(starts[channel], ends[channel], seg_start,
                               hold)
                    if fit == seg_start:
                        break
                    seg_start = fit
                    if fit >= last[array]:
                        break
                    seg_start = _fit(starts[array], ends[array], fit,
                                     duration)
                    if seg_start == fit:
                        break
                else:
                    raise RuntimeError(
                        "channel and array fits failed to converge")
                reservations += 1
                _reserve(starts, ends, last, busy, channel, seg_start, hold)
                clock = _reserve(starts, ends, last, busy, array, seg_start,
                                 duration)
                if marks is not None:
                    marks += (seg_start, clock, -1)
                if start is None:
                    start = seg_start
            end = clock
            if candidate is None:
                if tasks is not None:
                    tasks += (thread_index, node_index, ready, seg_start, end,
                              -1)
            else:
                if start is None:
                    start = ready
                total_bytes += timing.total_stream_bytes
                accel_segments = timing.accel_segments
                total_dispatches += accel_segments
                contention_seconds += per_dispatch * accel_segments
                kind_compute[kind] = (kind_compute.get(kind, 0.0)
                                      + timing.accel_compute_seconds)
                if tasks is not None:
                    tasks += (thread_index, node_index, ready, start, end,
                              array)
            if end > makespan:
                makespan = end
            next_index = node_index + 1
            pointers[thread_index] = next_index
            if next_index < thread_node_counts[thread_index]:
                heapq.heapreplace(heap, (end, thread_index))
            else:
                heapq.heappop(heap)

        task_log = None
        if tasks is not None:
            tasks = np.array(tasks, dtype=float).reshape(-1, 6)
            marks = np.array(marks, dtype=float).reshape(-1, 3)
        if record_tasks or metrics is not None:
            task_log = _replay(
                tasks, names, thread_nodes, thread_plans, record_tasks,
                (metrics.histogram("sched/task_seconds")
                 if metrics is not None else None))

        array_util = {}
        for array_type, members in arrays.items():
            array_busy = reduce(add, (busy[array] for array, _ in members), 0)
            array_util[array_type] = (array_busy / (makespan * len(members))
                                      if members and makespan > 0 else 0.0)
        channel_util = {t: busy[channels[t]] / makespan if makespan > 0
                        else 0.0 for t in ArrayType}
        host_util = (reduce(add, (busy[slot] for slot in slots), 0)
                     / (makespan * len(slots)) if makespan > 0 else 0.0)
        result = ScheduleResult(
            makespan_seconds=makespan,
            batch=batch,
            seq_len=seq_len,
            threads=thread_count,
            array_utilization=array_util,
            channel_utilization=channel_util,
            host_utilization=host_util,
            total_stream_bytes=total_bytes,
            total_dispatches=total_dispatches,
            contention_seconds=contention_seconds,
            kind_compute_seconds=kind_compute,
            task_log=task_log)
        if tracer is not None:
            # The run span carries the resource inventory (idle arrays
            # emit no spans, so the trace alone cannot recover the
            # utilization denominators) and the schedule's own verdict,
            # so trace analytics can both recompute and cross-check the
            # bottleneck attribution (repro.telemetry.analyze).
            inventory = {f"arrays_{t.value.lower()}": len(arrays[t])
                         for t in ArrayType}
            sizes = [0] * len(names)
            for members in arrays.values():
                for array, size in members:
                    sizes[array] = size
            _trace(tracer, tasks, marks, names, sizes, thread_nodes,
                   thread_plans, sub_batches, trace_pid, makespan, dict(
                       batch=batch, seq_len=seq_len, threads=thread_count,
                       policy="earliest_finish", dispatches=total_dispatches,
                       stream_bytes=total_bytes, host_slots=self.host.slots,
                       bottleneck=result.bottleneck, **inventory))
        if metrics is not None:
            metrics.counter("sched/reservations").inc(reservations)
            metrics.counter("sched/dispatches").inc(total_dispatches)
            metrics.counter("sched/stream_bytes").inc(total_bytes)
            metrics.counter("sched/contention_seconds").inc(
                contention_seconds)
            metrics.counter("sched/inferences").inc(batch)
            metrics.gauge("sched/makespan_seconds").set(makespan)
            metrics.gauge("sched/host_utilization").set(host_util)
            for array_type in ArrayType:
                metrics.gauge(
                    f"sched/array_occupancy/{array_type.value}").set(
                        array_util[array_type])
                metrics.gauge(
                    f"sched/link_utilization/{array_type.value}").set(
                        channel_util[array_type])
        return result

    # ------------------------------------------------------------------

    def _plan(self, dataflow: Dataflow,
              members: List[Tuple[int, int]],
              channel: int, per_dispatch: float) -> Tuple:
        """Fold everything about placing ``dataflow`` that is invariant
        across dispatches into ``(candidates, kind label, uniform)``.

        Each distinct array size is timed once, and each of its segments
        is folded into ``(is_host, channel_hold, duration)`` constants:
        the mutex-guarded per-type I/O buffer serializes each dispatch on
        the channel — lock acquisition + transfer setup (``per_dispatch``,
        growing with thread contention), then the stream itself — and the
        array is held from the same instant, since the stream feeds it
        directly (no local scratchpad).
        """
        if not members:
            raise ValueError(
                f"no {dataflow.array_type.value}-Type arrays provisioned")
        bandwidth = self.hardware.type_bandwidth(dataflow.array_type)
        folded: Dict[int, Tuple] = {}
        for _, size in members:
            if size in folded:
                continue
            timing = time_dataflow(
                dataflow, size, self.hardware,
                host_elementwise_throughput=self.host.elementwise_throughput)
            segments = []
            for segment in timing.segments:
                if segment.resource == "host":
                    segments.append((True, segment.compute_seconds, 0.0))
                    continue
                stream_seconds = segment.stream_bytes / bandwidth
                segments.append((
                    False, per_dispatch + stream_seconds,
                    max(segment.compute_seconds, stream_seconds)
                    + per_dispatch))
            folded[size] = (timing.accel_compute_seconds, timing,
                            tuple(segments))
        candidates = tuple((array, channel, size) + folded[size]
                           for array, size in members)
        return candidates, dataflow.kind.value, len(folded) == 1
