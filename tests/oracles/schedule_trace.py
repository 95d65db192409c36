"""The orchestrator's span building before it became columnar.

:func:`repro.sched.orchestrator._trace` builds the span columns of a
traced schedule with one gather over per-template layouts.  It replaced
the walk here: one visit per logged task, appending each of the task's
spans (its reservations, then the task itself) to Python lists, with
a fresh args dict per task.  :func:`spans` runs that walk over the same
placement log and returns the spans as rows, so tests can compare them
with the tracer's columns and :attr:`~repro.telemetry.Tracer.spans`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dataflow.graph import Node


def spans(tasks: np.ndarray, marks: np.ndarray, names: List[str],
          sizes: List[int], thread_nodes: List[Tuple],
          thread_plans: List[List], sub_batches: List[int],
          trace_pid: str, makespan: float,
          run_args: Dict[str, object]) -> List[Tuple]:
    """``(name, start, end, pid, tid, category, args)`` per span, in
    recording order, from the arguments
    :func:`~repro.sched.orchestrator._trace` takes after its tracer.

    Rows are visited in dispatch order.  Each task's reservations become
    spans before the task's own span: host-side segments on the chosen
    host slot's track (category ``host``), channel holds on the link
    track (``stream``), array holds on the array's track (``exec``).
    The ``orchestrator.run`` span over ``[0, makespan]`` comes last.
    ``sizes`` is unused: the walk reads each task's array size from its
    candidate.
    """
    templates: Dict[Tuple[int, int, int], Tuple] = {}
    reservations = iter(marks.tolist())
    rows: List[Tuple] = []
    for thread, index, ready, start, end, array in tasks.tolist():
        thread, index, array = int(thread), int(index), int(array)
        sub = sub_batches[thread]
        plan = thread_plans[thread][index]
        candidate = None if array < 0 else next(
            option for option in plan[0] if option[0] == array)
        size = candidate[2] if candidate is not None else 0
        template = templates.get((sub, index, size))
        if template is None:
            template = templates[(sub, index, size)] = _template(
                thread_nodes[thread][index], sub, index, candidate)
        task_names, task_categories, segment_args, holds = template
        times: List[Tuple[float, float, str]] = []
        for hold in holds:
            seg_start, seg_end, slot = next(reservations)
            if slot >= 0:
                times.append((seg_start, seg_end, names[int(slot)]))
                continue
            times.append((seg_start, seg_start + hold, names[candidate[1]]))
            times.append((seg_start, seg_end, names[candidate[0]]))
        times.append((start, end, f"thread{thread:02d}"))
        args = list(segment_args) + [{
            "kind": "host" if candidate is None else plan[1],
            "resource": "host" if candidate is None else names[array],
            "sub_batch": sub, "ready": ready, "node": index}]
        for name, category, one, (span_start, span_end, tid) in zip(
                task_names, task_categories, args, times):
            rows.append((name, span_start, span_end, trace_pid, tid,
                         category, one))
    rows.append(("orchestrator.run", 0.0, makespan, trace_pid, "schedule",
                 "run", run_args))
    return rows


def _template(node: Node, sub: int, index: int,
              candidate: Optional[Tuple]) -> Tuple:
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
