"""Dependency graph of dataflows and host tasks for one inference.

Nodes are either accelerated :class:`~repro.dataflow.patterns.Dataflow`
instances or :class:`HostTask` instances (layer norms, embeddings, and other
"Other"-category work the accelerator does not handle).  Edges encode the
data dependencies shown in the paper's Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from ..trace.ops import Op
from .patterns import Dataflow


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

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._nodes

    @property
    def dataflows(self) -> List[Tuple[int, Dataflow]]:
        """(index, node) pairs for the accelerated nodes."""
        return [(i, n) for i, n in enumerate(self._nodes)
                if isinstance(n, Dataflow)]
