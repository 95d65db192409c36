"""Trace recorder: collects the op stream a model forward pass emits.

Plays the role of the PyTorch JIT instrumentation in Figure 15: the model's
layers call :meth:`TraceRecorder.record` as they execute, producing the raw
ATen-call sequence that the dataflow compiler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .ops import Op, OpKind


@dataclass
class TraceRecorder:
    """Accumulates :class:`Op` records in execution order."""

    ops: List[Op] = field(default_factory=list)
    enabled: bool = True

    def record(self, op: Op) -> None:
        """Append one op (no-op while disabled)."""
        if self.enabled:
            self.ops.append(op)

    def clear(self) -> None:
        self.ops.clear()

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def by_kind(self) -> Dict[OpKind, List[Op]]:
        """Group recorded ops by kind."""
        grouped: Dict[OpKind, List[Op]] = {}
        for op in self.ops:
            grouped.setdefault(op.kind, []).append(op)
        return grouped

    def kind_signature(self) -> Tuple[Tuple[OpKind, Tuple[int, ...]], ...]:
        """Order-preserving (kind, shape) signature, for trace equivalence."""
        return tuple((op.kind, op.shape) for op in self.ops)


def maybe_record(recorder: Optional[TraceRecorder], op: Op) -> None:
    """Record ``op`` when a recorder is attached; otherwise do nothing."""
    if recorder is not None:
        recorder.record(op)
