"""Whole-graph checks on a :class:`repro.dataflow.graph.DataflowGraph`.

The builder emits nodes in topological order and the graph rejects a
dependency that points forward, so these walks only re-verify what the
construction guarantees; the dataflow tests use them as independent
checks of the graphs the builders produce.
"""

from __future__ import annotations

from typing import Callable, List

from repro.dataflow.graph import DataflowGraph, HostTask, Node


def validate_acyclic(graph: DataflowGraph) -> bool:
    """True when Kahn's algorithm visits every node of ``graph``."""
    nodes = graph.nodes
    successors: List[List[int]] = [[] for _ in nodes]
    for index, node in enumerate(nodes):
        for dep in node.deps:
            successors[dep].append(index)
    in_degree = [len(node.deps) for node in nodes]
    ready = [i for i, d in enumerate(in_degree) if d == 0]
    visited = 0
    while ready:
        current = ready.pop()
        visited += 1
        for successor in successors[current]:
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    return visited == len(nodes)


def critical_path_length(graph: DataflowGraph,
                         cost: Callable[[Node], float]) -> float:
    """Longest path through ``graph`` with each node weighted by ``cost``.

    With a node's isolated latency as its cost, this bounds the schedule
    makespan from below whatever the thread count.
    """
    finish: List[float] = [0.0] * len(graph.nodes)
    for index, node in enumerate(graph.nodes):
        start = max((finish[d] for d in node.deps), default=0.0)
        finish[index] = start + float(cost(node))
    return max(finish, default=0.0)


def coverage_fraction(graph: DataflowGraph) -> float:
    """Fraction of total FLOPs the three dataflows run on the accelerator.

    The paper reports the dataflows cover ~90% of inference time; on a
    FLOP basis coverage is higher still since host tasks are cheap
    elementwise work.
    """
    accel = sum(df.flops for _, df in graph.dataflows)
    host = sum(node.flops for node in graph.nodes
               if isinstance(node, HostTask))
    host += sum(op.flops for _, df in graph.dataflows for op in df.host_ops)
    total = accel + host
    return accel / total if total else 0.0
