"""Host-accelerator command interface (the ProSE "ISA").

Every dataflow dispatch crosses the link as a small command packet ahead
of the operand streams: which operation sequence to run, the tile shapes,
the scalar constants (MulAdd's α/β, MatDiv's reciprocal), and the target
array.  This module defines those commands and lowers a dataflow to its
command sequence, modeling the software-hardware contract of the paper's
orchestration layer (Section 3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from ..dataflow.patterns import ArrayType, Dataflow
from ..trace.ops import Op, OpKind


class Opcode(enum.Enum):
    """The five primitive operations of Section 3.2, plus control."""

    MATMUL = 0x01     # C = A x B
    MULADD = 0x02     # C = alpha*A + beta*B
    MATDIV = 0x03     # C = A * (1/alpha)
    EXP = 0x04        # C = exp(A) via LUT
    GELU = 0x05       # C = GELU(A) via LUT
    WRITEBACK = 0x0F  # drain the accumulators to the host


@dataclass(frozen=True)
class Command:
    """One command packet.

    Attributes:
        opcode: the primitive to execute.
        array_type: which array group the packet is routed to.
        dims: (m, k, n) for GEMMs; (elements, 0, 0) for SIMD ops.
        alpha / beta: scalar constants (MulAdd, MatDiv).
        use_input_buffer: request partial-input-buffer reuse.
    """

    opcode: Opcode
    array_type: ArrayType
    dims: Tuple[int, int, int] = (0, 0, 0)
    alpha: float = 1.0
    beta: float = 1.0
    use_input_buffer: bool = True


def _op_to_command(op: Op, array_type: ArrayType,
                   use_input_buffer: bool) -> Command:
    """Lower one traced op to a command packet."""
    if op.kind is OpKind.MATMUL:
        return Command(Opcode.MATMUL, array_type, op.shape,
                       use_input_buffer=use_input_buffer)
    if op.kind is OpKind.BMM:
        batch, m, k, n = op.shape
        return Command(Opcode.MATMUL, array_type, (batch * m, k, n),
                       use_input_buffer=use_input_buffer)
    if op.kind is OpKind.ADD:
        return Command(Opcode.MULADD, array_type, (op.elements, 0, 0),
                       alpha=1.0, beta=1.0,
                       use_input_buffer=use_input_buffer)
    if op.kind in (OpKind.MUL, OpKind.DIV):
        divisor = dict(op.metadata).get("divisor", 1.0)
        alpha = divisor if op.kind is OpKind.DIV else 1.0
        return Command(Opcode.MATDIV, array_type, (op.elements, 0, 0),
                       alpha=float(alpha),
                       use_input_buffer=use_input_buffer)
    if op.kind is OpKind.EXP:
        return Command(Opcode.EXP, array_type, (op.elements, 0, 0),
                       use_input_buffer=use_input_buffer)
    if op.kind is OpKind.GELU:
        return Command(Opcode.GELU, array_type, (op.elements, 0, 0),
                       use_input_buffer=use_input_buffer)
    raise ValueError(f"op kind {op.kind} has no accelerator opcode")


def lower_dataflow(dataflow: Dataflow,
                   use_input_buffer: bool = True) -> List[Command]:
    """Lower a dataflow to its dispatch command sequence.

    The sequence ends with a WRITEBACK draining the final result; for
    Dataflow 3 an extra WRITEBACK follows the Exp (the softmax numerators
    return to the host before the second MatMul).
    """
    commands: List[Command] = []
    for op in dataflow.ops:
        commands.append(_op_to_command(op, dataflow.array_type,
                                       use_input_buffer))
        if op.kind is OpKind.EXP and dataflow.host_ops:
            commands.append(Command(Opcode.WRITEBACK, dataflow.array_type))
    commands.append(Command(Opcode.WRITEBACK, dataflow.array_type))
    return commands
