"""ATen-style operator taxonomy.

The paper instruments its PyTorch model "to produce raw sequences of its
backend tensor and mathematical operation library calls (ATen calls) via the
PyTorch JIT compiler" (Section 4.1, Figure 15).  This module defines the
operator records our tracer emits: the same operation classes Figure 3 uses
for its runtime breakdown (Matrix Multiply, Batched Mat Mul, Softmax, GELU,
Matrix Add, Matrix Div, Other) plus the finer-grained kinds the dataflow
compiler consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Bytes per element for the bfloat16 streaming datapath.
BF16_BYTES = 2

#: Bytes per element for float32 (host-side reference math).
FP32_BYTES = 4


class OpKind(enum.Enum):
    """Operator classes, matching the paper's Figure 3 breakdown."""

    MATMUL = "matmul"            # unbatched GEMM (aten::mm / aten::addmm)
    BMM = "bmm"                  # batched GEMM (aten::bmm)
    SOFTMAX = "softmax"          # aten::softmax
    GELU = "gelu"                # aten::gelu
    ADD = "add"                  # elementwise aten::add (Matrix Add)
    DIV = "div"                  # elementwise aten::div (Matrix Div)
    MUL = "mul"                  # elementwise aten::mul
    EXP = "exp"                  # aten::exp (softmax numerator)
    SUM = "sum"                  # reduction (softmax denominator)
    LAYERNORM = "layernorm"      # aten::layer_norm
    EMBEDDING = "embedding"      # aten::embedding gather
    TRANSPOSE = "transpose"      # aten::transpose / permute
    TANH = "tanh"                # aten::tanh (inside exact GELU expansions)
    OTHER = "other"              # everything else


#: Kinds Figure 3 groups under each plotted category.
FIGURE3_CATEGORIES: Dict[str, Tuple[OpKind, ...]] = {
    "Matrix Multiply": (OpKind.MATMUL,),
    "Batched Mat Mul": (OpKind.BMM,),
    "Softmax": (OpKind.SOFTMAX, OpKind.EXP, OpKind.SUM),
    "GELU": (OpKind.GELU, OpKind.TANH),
    "Matrix Add": (OpKind.ADD,),
    "Matrix Div": (OpKind.DIV, OpKind.MUL),
    "Other": (OpKind.LAYERNORM, OpKind.EMBEDDING, OpKind.TRANSPOSE,
              OpKind.OTHER),
}


@dataclass(frozen=True)
class Op:
    """One traced operator call.

    Attributes:
        kind: operator class.
        shape: kind-specific shape tuple.  For MATMUL: ``(m, k, n)``.  For
            BMM: ``(batch, m, k, n)``.  For elementwise/reductions: the
            operand tensor shape.
        name: human-readable provenance such as ``"layer3.attention.query"``.
        layer: encoder layer index, or -1 for embedding/pooler ops.
        metadata: free-form annotations (e.g. scalar constants).
    """

    kind: OpKind
    shape: Tuple[int, ...]
    name: str = ""
    layer: int = -1
    metadata: Tuple[Tuple[str, float], ...] = field(default=())

    def __post_init__(self) -> None:
        # Plain loop: this runs for every traced op on the cold path, and
        # a generator + any() costs ~2x the loop for the tiny shapes here.
        for dim in self.shape:
            if dim <= 0:
                raise ValueError(
                    f"op {self.name}: non-positive dim in {self.shape}")
        kind = self.kind
        if kind is OpKind.MATMUL:
            if len(self.shape) != 3:
                raise ValueError("MATMUL shape must be (m, k, n)")
        elif kind is OpKind.BMM:
            if len(self.shape) != 4:
                raise ValueError("BMM shape must be (batch, m, k, n)")

    @property
    def elements(self) -> int:
        """Number of elements in the op's *output* tensor."""
        if self.kind is OpKind.MATMUL:
            m, _, n = self.shape
            return m * n
        if self.kind is OpKind.BMM:
            b, m, _, n = self.shape
            return b * m * n
        if self.kind is OpKind.SUM:
            # Reduction over the last axis: output drops that axis.
            product = 1
            for dim in self.shape[:-1]:
                product *= dim
            return product
        product = 1
        for dim in self.shape:
            product *= dim
        return product

    @property
    def flops(self) -> int:
        """Floating-point operations (multiply-accumulate counts as 2)."""
        if self.kind is OpKind.MATMUL:
            m, k, n = self.shape
            return 2 * m * k * n
        if self.kind is OpKind.BMM:
            b, m, k, n = self.shape
            return 2 * b * m * k * n
        input_elements = 1
        for dim in self.shape:
            input_elements *= dim
        if self.kind is OpKind.SOFTMAX:
            return 5 * input_elements          # exp + sum + div, fused
        if self.kind in (OpKind.GELU, OpKind.TANH):
            return 8 * input_elements          # polynomial + tanh
        if self.kind is OpKind.LAYERNORM:
            return 8 * input_elements          # mean, var, scale, shift
        if self.kind is OpKind.EXP:
            return 4 * input_elements
        if self.kind in (OpKind.EMBEDDING, OpKind.TRANSPOSE):
            return 0
        return input_elements                  # ADD / DIV / MUL / SUM / OTHER

    def bytes_moved(self, element_bytes: int = BF16_BYTES) -> int:
        """Approximate DRAM/stream traffic: inputs read + output written."""
        if self.kind is OpKind.MATMUL:
            m, k, n = self.shape
            return element_bytes * (m * k + k * n + m * n)
        if self.kind is OpKind.BMM:
            b, m, k, n = self.shape
            return element_bytes * b * (m * k + k * n + m * n)
        input_elements = 1
        for dim in self.shape:
            input_elements *= dim
        if self.kind in (OpKind.ADD, OpKind.MUL, OpKind.DIV):
            # Two operands in, one out (elementwise binary).
            return element_bytes * 3 * input_elements
        return element_bytes * (input_elements + self.elements)

    @property
    def figure3_category(self) -> str:
        """The Figure 3 category this op falls under."""
        for category, kinds in FIGURE3_CATEGORIES.items():
            if self.kind in kinds:
                return category
        return "Other"


def maybe_record(recorder: Optional[List[Op]], op: Op) -> None:
    """Append ``op`` when a recorder list is attached; otherwise do nothing.

    The encoder's forward pass calls this for each ATen-level op it runs,
    so ``model.forward(ids, recorder=ops)`` lists its op stream in ``ops``.
    """
    if recorder is not None:
        recorder.append(op)


def matmul_op(m: int, k: int, n: int, name: str = "",
              layer: int = -1) -> Op:
    """Convenience constructor for an unbatched GEMM op."""
    return Op(kind=OpKind.MATMUL, shape=(m, k, n), name=name, layer=layer)


def bmm_op(batch: int, m: int, k: int, n: int, name: str = "",
           layer: int = -1) -> Op:
    """Convenience constructor for a batched GEMM op."""
    return Op(kind=OpKind.BMM, shape=(batch, m, k, n), name=name, layer=layer)


def elementwise_op(kind: OpKind, shape: Tuple[int, ...], name: str = "",
                   layer: int = -1,
                   metadata: Optional[Dict[str, float]] = None) -> Op:
    """Convenience constructor for elementwise / reduction / special ops."""
    meta = tuple(sorted(metadata.items())) if metadata else ()
    return Op(kind=kind, shape=shape, name=name, layer=layer, metadata=meta)
