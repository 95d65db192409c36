"""Dataflow patterns (paper Figure 6).

Around 90% of Protein BERT inference time falls into three operation
sequences, each executable on the accelerator as one pipelined dataflow:

* **Dataflow 1** — MatMul → MulAdd.  The large projections (Q/K/V, attention
  output, FFN output) with their bias/residual additions.  Runs on M-Type
  systolic arrays.
* **Dataflow 2** — MatMul → MulAdd → GELU.  The FFN intermediate projection.
  Runs on G-Type arrays (GELU lookup tables attached to the SIMD units).
* **Dataflow 3** — (batched) MatMul → MatDiv → Exp → *host Sum/Divide* →
  MatMul.  The attention dot products, scaling, and softmax.  Runs on E-Type
  arrays; the softmax summation and division execute on the host CPU,
  "trading performance for hardware simplicity".

Everything else (layer norms, embeddings, transposes) runs on the host.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from ..trace.ops import Op, OpKind


class DataflowKind(enum.Enum):
    """The three accelerated operation sequences of Figure 6."""

    DATAFLOW_1 = "dataflow1"    # MatMul -> MulAdd
    DATAFLOW_2 = "dataflow2"    # MatMul -> MulAdd -> GELU
    DATAFLOW_3 = "dataflow3"    # batched MatMul -> MatDiv -> Exp -> MatMul

    @property
    def array_type(self) -> "ArrayType":
        """The systolic-array type that executes this dataflow."""
        return _DATAFLOW_TO_ARRAY[self]


class ArrayType(enum.Enum):
    """Heterogeneous systolic array types (paper Section 3.1).

    M-Type: MatMul + SIMD ALU ops.  G-Type: adds GELU LUTs.  E-Type: adds
    Exp LUTs.
    """

    M = "M"
    G = "G"
    E = "E"

    @property
    def has_gelu(self) -> bool:
        return self is ArrayType.G

    @property
    def has_exp(self) -> bool:
        return self is ArrayType.E


_DATAFLOW_TO_ARRAY = {
    DataflowKind.DATAFLOW_1: ArrayType.M,
    DataflowKind.DATAFLOW_2: ArrayType.G,
    DataflowKind.DATAFLOW_3: ArrayType.E,
}

#: Op kinds each dataflow may contain on the accelerator side.
ACCELERATOR_KINDS = {
    DataflowKind.DATAFLOW_1: (OpKind.MATMUL, OpKind.ADD, OpKind.MUL),
    DataflowKind.DATAFLOW_2: (OpKind.MATMUL, OpKind.ADD, OpKind.MUL,
                              OpKind.GELU),
    DataflowKind.DATAFLOW_3: (OpKind.BMM, OpKind.DIV, OpKind.MUL,
                              OpKind.ADD, OpKind.EXP),
}

#: Op kinds Dataflow 3 delegates to the host CPU (softmax sum + divide).
HOST_KINDS_DATAFLOW_3 = (OpKind.SUM, OpKind.DIV)


@dataclass(frozen=True)
class Dataflow:
    """One schedulable accelerator task: a chained op sequence.

    Attributes:
        kind: which of the three patterns this instance is.
        ops: accelerator-side ops, in pipeline order.
        host_ops: ops this dataflow requires the host to run (softmax
            sum/divide for Dataflow 3; empty otherwise).
        name: provenance, e.g. ``"layer.3.attention.query"``.
        layer: encoder layer index.
        deps: indices (within the parent graph) of dataflows that must
            complete first.
    """

    kind: DataflowKind
    ops: Tuple[Op, ...]
    host_ops: Tuple[Op, ...] = ()
    name: str = ""
    layer: int = -1
    deps: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError(f"dataflow {self.name}: needs at least one op")
        allowed = ACCELERATOR_KINDS[self.kind]
        for op in self.ops:
            if op.kind not in allowed:
                raise ValueError(
                    f"dataflow {self.name}: op kind {op.kind} not allowed "
                    f"in {self.kind}")
        if self.host_ops and self.kind is not DataflowKind.DATAFLOW_3:
            raise ValueError("only Dataflow 3 carries host-side ops")

    @property
    def array_type(self) -> ArrayType:
        return self.kind.array_type

    @property
    def flops(self) -> int:
        """Accelerator-side FLOPs."""
        return sum(op.flops for op in self.ops)

    @property
    def gemm_ops(self) -> Tuple[Op, ...]:
        """The MatMul/BMM ops in this dataflow."""
        return tuple(op for op in self.ops
                     if op.kind in (OpKind.MATMUL, OpKind.BMM))

    @property
    def simd_ops(self) -> Tuple[Op, ...]:
        """The elementwise / special-function ops in this dataflow."""
        return tuple(op for op in self.ops
                     if op.kind not in (OpKind.MATMUL, OpKind.BMM))

    def stream_bytes(self, element_bytes: int = 2) -> int:
        """Host↔accelerator traffic for one execution of this dataflow.

        ProSE streams both GEMM operands in and the result out; SIMD
        operands (bias vectors, residual matrices) stream in as well; the
        intermediate data between chained ops stays in the accumulators and
        moves nothing (the paper's central efficiency claim).
        """
        total = 0
        for op in self.gemm_ops:
            if op.kind is OpKind.MATMUL:
                m, k, n = op.shape
                total += element_bytes * (m * k + k * n + m * n)
            else:
                b, m, k, n = op.shape
                total += element_bytes * b * (m * k + k * n + m * n)
        for op in self.simd_ops:
            if op.kind in (OpKind.ADD, OpKind.MUL):
                # One streamed operand; the other side lives in accumulators.
                total += element_bytes * op.elements
            # DIV (reciprocal-constant multiply), EXP, and GELU read only the
            # accumulators plus broadcast scalars: no streamed matrix operand.
        return total
