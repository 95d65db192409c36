"""Host CPU model (the Xeon of Section 4.1, footnote 3).

ProSE delegates the softmax summation/division, layer norms, embeddings and
other "Other"-category work to the host.  The paper's host is a dual-socket
Intel Xeon Gold 6140M (36C/72T @ 2.3 GHz, 24.75 MB L3); under ProSE load it
measured 50.21 W of CPU power at a 21.4% duty cycle plus 6.23 W of DRAM
power — constants we reuse for the system power account.

The performance model treats the host as a pool of parallel slots, each
with a sustained elementwise throughput; intermediate softmax tensors
mostly live in L3 ("DRAM is mostly accessed during cold misses"), so the
throughput is compute-limited rather than DRAM-limited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from ..trace.ops import Op, OpKind

#: Measured CPU power under ProSE load (paper Section 4.1).
CPU_ACTIVE_POWER_WATTS = 50.21

#: Measured CPU duty cycle under ProSE load.
CPU_DUTY_CYCLE = 0.214

#: Measured DRAM power.
DRAM_POWER_WATTS = 6.23

#: Effective host power charged to ProSE inference.
HOST_POWER_WATTS = CPU_ACTIVE_POWER_WATTS * CPU_DUTY_CYCLE + DRAM_POWER_WATTS


@dataclass(frozen=True)
class HostModel:
    """Host CPU performance/power parameters.

    Attributes:
        slots: concurrently schedulable host execution slots (bounded by
            cores and by the orchestration design's host-side parallelism).
        elementwise_throughput: sustained elements/second per slot for
            streaming elementwise kernels (sum, divide, normalize).
        flops_throughput: sustained FLOPs/second per slot for generic math.
    """

    slots: int = 8
    elementwise_throughput: float = 2.5e10
    flops_throughput: float = 5.0e10

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ValueError("host slots must be positive")
        if min(self.elementwise_throughput, self.flops_throughput) <= 0:
            raise ValueError("host throughputs must be positive")

    def op_seconds(self, op: Op) -> float:
        """Time for one host op on one slot."""
        input_elements = 1
        for dim in op.shape:
            input_elements *= dim
        if op.kind in (OpKind.SUM, OpKind.DIV, OpKind.ADD, OpKind.MUL,
                       OpKind.EXP):
            return input_elements / self.elementwise_throughput
        if op.kind in (OpKind.EMBEDDING, OpKind.TRANSPOSE):
            # Gathers / view changes: bandwidth-ish, modeled as one pass.
            return input_elements / self.elementwise_throughput
        return op.flops / self.flops_throughput

    def task_seconds(self, ops) -> float:
        """Total single-slot time for a host task's op tuple."""
        return reduce(add, (self.op_seconds(op) for op in ops), 0)
