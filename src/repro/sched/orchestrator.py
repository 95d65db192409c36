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

#: One placement-log row: ``(thread, node index, ready, start, end,
#: resource, kind, candidate, marks)``.  ``marks`` holds each segment's
#: ``(start, end, host slot)``, slot ``None`` on the accelerator; a host
#: task has no candidate and is one host segment.
LogRow = Tuple


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


def _replay(log: List[LogRow], thread_nodes: List[Tuple],
            record_tasks: bool, histogram: Optional[Histogram]
            ) -> Optional[Tuple[TaskRecord, ...]]:
    """Derive task records and task latencies from a placement log.

    Returns:
        The task records when ``record_tasks`` is set, else ``None``.
    """
    if histogram is not None:
        histogram.observe_many([row[4] - row[3] for row in log])
    if not record_tasks:
        return None
    return tuple(
        TaskRecord(thread=thread, name=thread_nodes[thread][index].name,
                   kind=kind, ready=ready, start=start, end=end,
                   resource=resource)
        for thread, index, ready, start, end, resource, kind, _, _ in log)


def _trace(tracer: Tracer, log: List[LogRow], names: List[str],
           thread_nodes: List[Tuple], sub_batches: List[int],
           trace_pid: str, makespan: float,
           run_args: Dict[str, object]) -> None:
    """Fill the tracer's span columns from a placement log, in one call.

    Rows are visited in dispatch order, and ``names`` maps a resource
    index to its track name.  Each task's reservations become spans
    before the task's own span: host-side segments on the chosen host
    slot's track (category ``host``), channel holds on the link track
    (``stream``), array holds on the array's track (``exec``).  The
    ``orchestrator.run`` span over ``[0, makespan]`` comes last.

    A task's span names, categories and reservation args are fixed by
    its node, sub-batch and array size, so they are built once per such
    triple (:func:`_template`); only times, tracks and the task's own
    args are per row.
    """
    tracks = [tracer.track(trace_pid, name) for name in names]
    thread_tracks = [tracer.track(trace_pid, f"thread{thread:02d}")
                     for thread in range(len(sub_batches))]
    templates: Dict[Tuple[int, int, int], Tuple] = {}
    columns: Tuple[List, ...] = ([], [], [], [], [], [])
    span_names, starts, ends, span_tracks, categories, span_args = columns
    start_at, end_at, on_track = starts.append, ends.append, span_tracks.append
    for (thread, index, ready, start, end, resource, kind, candidate,
         marks) in log:
        sub = sub_batches[thread]
        size = candidate[2] if candidate is not None else 0
        template = templates.get((sub, index, size))
        if template is None:
            template = templates[(sub, index, size)] = _template(
                thread_nodes[thread][index], sub, index, candidate)
        task_names, task_categories, segment_args, holds = template
        span_names.extend(task_names)
        categories.extend(task_categories)
        span_args.extend(segment_args)
        span_args.append({"kind": kind, "resource": resource,
                          "sub_batch": sub, "ready": ready, "node": index})
        for (seg_start, seg_end, slot), hold in zip(marks, holds):
            if slot is not None:
                start_at(seg_start)
                end_at(seg_end)
                on_track(tracks[slot])
                continue
            start_at(seg_start)
            end_at(seg_start + hold)
            on_track(tracks[candidate[1]])
            start_at(seg_start)
            end_at(seg_end)
            on_track(tracks[candidate[0]])
        start_at(start)
        end_at(end)
        on_track(thread_tracks[thread])
    for column, value in zip(columns, (
            "orchestrator.run", 0.0, makespan,
            tracer.track(trace_pid, "schedule"), "run", run_args)):
        column.append(value)
    tracer.add_spans(*columns)


def _template(node: Node, sub: int, index: int,
              candidate: Optional[Candidate]) -> Tuple:
    """``(names, categories, reservation args, channel holds)`` of one
    task's spans: one host span for a host task, else per segment of the
    dataflow placed by ``candidate`` one host span (hold ``None``) or a
    stream and an exec span, then the task span (whose args vary)."""
    if candidate is None:
        return ((node.name, node.name), ("host", "task"),
                ({"ops": len(node.ops), "flops": node.flops},), (None,))
    _, _, size, _, timing, segments = candidate
    array_type = node.array_type.value
    names, categories, args, holds = [], [], [], []
    for segment_index, (segment, (is_host, hold, _)) in enumerate(
            zip(timing.segments, segments)):
        if is_host:
            names.append(f"{node.name}:host{segment_index}")
            categories.append("host")
            args.append({"sub_batch": sub, "node": index})
            holds.append(None)
            continue
        names += [f"{node.name}:xfer{segment_index}",
                  f"{node.name}:seg{segment_index}"]
        categories += ["stream", "exec"]
        args += [{"bytes": segment.stream_bytes, "sub_batch": sub,
                  "node": index, "array_type": array_type},
                 {"compute_seconds": segment.compute_seconds,
                  "array_size": size, "sub_batch": sub, "node": index,
                  "array_type": array_type}]
        holds.append(hold)
    return (tuple(names) + (node.name,), tuple(categories) + ("task",),
            tuple(args), tuple(holds))


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
        also appends one plain-tuple row per task to a placement log, and
        the task records, spans and task-latency histogram are all derived
        from that log after the loop; the schedule itself never depends
        on who observes it.

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
        log: Optional[List[LogRow]] = (
            [] if record_tasks or tracer is not None or metrics is not None
            else None)

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
            marks = [] if log is not None else None
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
                        marks.append((seg_start, clock, slot))
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
                    marks.append((seg_start, clock, None))
                if start is None:
                    start = seg_start
            end = clock
            if candidate is None:
                if log is not None:
                    log.append((thread_index, node_index, ready, marks[0][0],
                                end, "host", "host", None, tuple(marks)))
            else:
                if start is None:
                    start = ready
                total_bytes += timing.total_stream_bytes
                accel_segments = timing.accel_segments
                total_dispatches += accel_segments
                contention_seconds += per_dispatch * accel_segments
                kind_compute[kind] = (kind_compute.get(kind, 0.0)
                                      + timing.accel_compute_seconds)
                if log is not None:
                    log.append((thread_index, node_index, ready, start, end,
                                names[array], kind, candidate, tuple(marks)))
            if end > makespan:
                makespan = end
            next_index = node_index + 1
            pointers[thread_index] = next_index
            if next_index < thread_node_counts[thread_index]:
                heapq.heapreplace(heap, (end, thread_index))
            else:
                heapq.heappop(heap)

        task_log = None
        if record_tasks or metrics is not None:
            task_log = _replay(
                log, thread_nodes, record_tasks,
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
            _trace(tracer, log, names, thread_nodes, sub_batches, trace_pid,
                   makespan, dict(
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
