"""Dependency graph of dataflows and host tasks for one inference.

Nodes are either accelerated :class:`~repro.dataflow.patterns.Dataflow`
instances or :class:`HostTask` instances (layer norms, embeddings, and other
"Other"-category work the accelerator does not handle).  Edges encode the
data dependencies shown in the paper's Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from ..trace.ops import Op
from .patterns import ArrayType, Dataflow


@dataclass(frozen=True)
class HostTask:
    """Work executed on the host CPU (not one of the three dataflows)."""

    ops: Tuple[Op, ...]
    name: str = ""
    layer: int = -1
    deps: Tuple[int, ...] = field(default=())

    @property
    def flops(self) -> int:
        return sum(op.flops for op in self.ops)


Node = Union[Dataflow, HostTask]


class DataflowGraph:
    """An immutable DAG of dataflows and host tasks.

    Args:
        nodes: nodes in construction order; each node's ``deps`` must point
            to smaller indices (the builder emits them topologically).
    """

    def __init__(self, nodes: Sequence[Node]) -> None:
        self._nodes: Tuple[Node, ...] = tuple(nodes)
        for index, node in enumerate(self._nodes):
            for dep in node.deps:
                if not 0 <= dep < index:
                    raise ValueError(
                        f"node {index} ({node.name}): bad dep {dep}")
        self._successors: Dict[int, List[int]] = {
            i: [] for i in range(len(self._nodes))}
        for index, node in enumerate(self._nodes):
            for dep in node.deps:
                self._successors[dep].append(index)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __getitem__(self, index: int) -> Node:
        return self._nodes[index]

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._nodes

    def successors(self, index: int) -> Tuple[int, ...]:
        """Indices of nodes that depend on ``index``."""
        return tuple(self._successors[index])

    @property
    def dataflows(self) -> List[Tuple[int, Dataflow]]:
        """(index, node) pairs for the accelerated nodes."""
        return [(i, n) for i, n in enumerate(self._nodes)
                if isinstance(n, Dataflow)]

    @property
    def host_tasks(self) -> List[Tuple[int, HostTask]]:
        return [(i, n) for i, n in enumerate(self._nodes)
                if isinstance(n, HostTask)]

    def count_by_array_type(self) -> Dict[ArrayType, int]:
        """How many dataflows target each systolic-array type."""
        counts: Dict[ArrayType, int] = {t: 0 for t in ArrayType}
        for _, dataflow in self.dataflows:
            counts[dataflow.array_type] += 1
        return counts

    def validate_acyclic(self) -> bool:
        """Graphs built here are acyclic by construction; re-verify anyway."""
        in_degree = [len(node.deps) for node in self._nodes]
        ready = [i for i, d in enumerate(in_degree) if d == 0]
        visited = 0
        while ready:
            current = ready.pop()
            visited += 1
            for successor in self._successors[current]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
        return visited == len(self._nodes)

    def critical_path_length(self, cost) -> float:
        """Longest weighted path through the DAG.

        Args:
            cost: callable mapping a node to a non-negative weight (e.g. its
                isolated execution latency).  Determines the lower bound on
                schedule makespan regardless of thread count.
        """
        finish: List[float] = [0.0] * len(self._nodes)
        for index, node in enumerate(self._nodes):
            start = max((finish[d] for d in node.deps), default=0.0)
            finish[index] = start + float(cost(node))
        return max(finish, default=0.0)
