"""Microarchitectural step comparison: TPUv2 vs ProSE (Figures 11-12).

The paper's third contribution is a step-by-step contrast of how one
MatMul and one MulAdd execute on a weight-stationary TPUv2 (global
dataflow through the Unified Buffer) versus ProSE's output-stationary
streaming design (local dataflow through the accumulators).  This module
encodes those operation sequences symbolically, so the step counts, the
Unified-Buffer round trips, and the intermediate-data traffic can be
computed and compared for any operand shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class StepKind(enum.Enum):
    """Classes of microarchitectural steps in Figures 11-12."""

    STREAM_IN = "stream-in"          # operands from host/DDR
    BUFFER_WRITE = "buffer-write"    # write the Unified Buffer
    BUFFER_READ = "buffer-read"      # read the Unified Buffer
    SETUP = "setup"                  # input setup / weight preload
    COMPUTE = "compute"              # MatMul / accumulate / SIMD op
    WRITE_BACK = "write-back"        # results to the host


@dataclass(frozen=True)
class Step:
    """One numbered operation of a Figure 11/12 sequence."""

    kind: StepKind
    description: str
    bytes_moved: int = 0


@dataclass(frozen=True)
class OperationTrace:
    """A full operation sequence on one microarchitecture."""

    machine: str
    operation: str
    steps: Tuple[Step, ...]

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def buffer_trips(self) -> int:
        """Unified-Buffer reads + writes (zero for ProSE by design)."""
        return sum(1 for step in self.steps
                   if step.kind in (StepKind.BUFFER_READ,
                                    StepKind.BUFFER_WRITE))

    @property
    def intermediate_bytes(self) -> int:
        """Bytes parked in local scratch between dependent operations."""
        return sum(step.bytes_moved for step in self.steps
                   if step.kind in (StepKind.BUFFER_READ,
                                    StepKind.BUFFER_WRITE))


def tpu_matmul_trace(m: int, k: int, n: int,
                     element_bytes: int = 2) -> OperationTrace:
    """The eight TPUv2 operations of Figure 11(a) for one MatMul step."""
    a_bytes = m * k * element_bytes
    b_bytes = k * n * element_bytes
    c_bytes = m * n * element_bytes
    steps = (
        Step(StepKind.STREAM_IN, "load weight matrix B into the Weight "
             "FIFO from DDR", b_bytes),
        Step(StepKind.SETUP, "pre-load weights into the systolic array "
             "(weight-stationary)"),
        Step(StepKind.BUFFER_WRITE, "stream matrix A from the host into "
             "the Unified Buffer", a_bytes),
        Step(StepKind.SETUP, "set up input matrix A"),
        Step(StepKind.BUFFER_READ, "shift input matrix A into the "
             "systolic array", a_bytes),
        Step(StepKind.COMPUTE, "perform MatMul"),
        Step(StepKind.COMPUTE, "perform accumulation"),
        Step(StepKind.BUFFER_WRITE, "write partial results to the "
             "Unified Buffer", c_bytes),
    )
    return OperationTrace(machine="TPUv2", operation="MatMul", steps=steps)


def prose_matmul_trace(m: int, k: int, n: int,
                       element_bytes: int = 2) -> OperationTrace:
    """The four ProSE operations of Figure 11(b) for one MatMul step."""
    steps = (
        Step(StepKind.STREAM_IN, "stream matrix B from the host and "
             "shift into the systolic array", k * n * element_bytes),
        Step(StepKind.STREAM_IN, "stream matrix A from the host and "
             "shift into the systolic array", m * k * element_bytes),
        Step(StepKind.COMPUTE, "perform MatMul (accumulate in the "
             "32-bit accumulators)"),
        Step(StepKind.WRITE_BACK, "write partial results back to the "
             "host", m * n * element_bytes),
    )
    return OperationTrace(machine="ProSE", operation="MatMul", steps=steps)


def tpu_muladd_trace(m: int, n: int,
                     element_bytes: int = 2) -> OperationTrace:
    """TPUv2's global-dataflow MulAdd of Figure 12(a): α·A + B.

    Three trips through the pipeline: scale A through Normalization,
    stage B, then add — each round-tripping the Unified Buffer.
    """
    tensor = m * n * element_bytes
    steps = (
        Step(StepKind.BUFFER_WRITE, "stream matrix A into the Unified "
             "Buffer", tensor),
        Step(StepKind.SETUP, "load all-ones weights into the array"),
        Step(StepKind.BUFFER_READ, "shift A through the array", tensor),
        Step(StepKind.COMPUTE, "scale by alpha in Normalization"),
        Step(StepKind.BUFFER_WRITE, "write alpha*A back to the Unified "
             "Buffer", tensor),
        Step(StepKind.BUFFER_WRITE, "stream matrix B into the Unified "
             "Buffer", tensor),
        Step(StepKind.BUFFER_READ, "stage B in the Accumulation unit",
             tensor),
        Step(StepKind.BUFFER_READ, "stream alpha*A back through the "
             "array", tensor),
        Step(StepKind.COMPUTE, "ADD in the Accumulation stage"),
        Step(StepKind.BUFFER_WRITE, "write alpha*A + B to the Unified "
             "Buffer", tensor),
    )
    return OperationTrace(machine="TPUv2", operation="MulAdd", steps=steps)


def prose_muladd_trace(m: int, n: int,
                       element_bytes: int = 2) -> OperationTrace:
    """ProSE's local-dataflow MulAdd of Figure 12(b): one trip, chained."""
    tensor = m * n * element_bytes
    steps = (
        Step(StepKind.STREAM_IN, "stream matrix A and shift into the "
             "systolic array", tensor),
        Step(StepKind.SETUP, "broadcast scalar alpha to the SIMD ALUs"),
        Step(StepKind.COMPUTE, "left-rotate and multiply alpha*A in the "
             "SIMD ALUs"),
        Step(StepKind.STREAM_IN, "stream matrix B into the vector "
             "register", tensor),
        Step(StepKind.COMPUTE, "left-rotate and add alpha*A + B"),
        Step(StepKind.WRITE_BACK, "write results back to the host",
             tensor),
    )
    return OperationTrace(machine="ProSE", operation="MulAdd", steps=steps)


@dataclass(frozen=True)
class StepComparison:
    """Side-by-side step economics of the two microarchitectures."""

    operation: str
    tpu: OperationTrace
    prose: OperationTrace


def compare_matmul(m: int = 4, k: int = 4, n: int = 4) -> StepComparison:
    """Figure 11's MatMul comparison at the given shape."""
    return StepComparison(operation="MatMul",
                          tpu=tpu_matmul_trace(m, k, n),
                          prose=prose_matmul_trace(m, k, n))


def compare_muladd(m: int = 4, n: int = 4) -> StepComparison:
    """Figure 12's MulAdd comparison at the given shape."""
    return StepComparison(operation="MulAdd",
                          tpu=tpu_muladd_trace(m, n),
                          prose=prose_muladd_trace(m, n))


def format_comparison(comparison: StepComparison) -> str:
    lines = [f"== {comparison.operation} ==" ]
    for trace in (comparison.tpu, comparison.prose):
        lines.append(f"{trace.machine}: {trace.num_steps} operations, "
                     f"{trace.buffer_trips} Unified-Buffer trips, "
                     f"{trace.intermediate_bytes} intermediate bytes")
        for index, step in enumerate(trace.steps, start=1):
            lines.append(f"  {index}. [{step.kind.value}] "
                         f"{step.description}")
    return "\n".join(lines)
