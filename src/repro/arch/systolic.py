"""Fast functional model of a ProSE systolic array.

Numerically equivalent to the cycle-by-cycle PE-grid simulation the tests
check it against (``tests/oracles/cycle_sim.py``), but vectorized: operands
are rounded to bfloat16, MACs accumulate in fp32, SIMD ALU results and
read-outs round to bfloat16, and GELU/Exp go through the same lookup tables
the hardware stores.

The model also counts tiles and cycles so callers can cross-check the
analytic timing model against the functional execution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..dataflow.patterns import ArrayType
from ..model.tensors import to_bfloat16
from .lut import SpecialFunctionLut, make_exp_lut, make_gelu_lut


class SimdOpcode(enum.Enum):
    """SIMD ALU operations the left-rotating array supports."""

    ADD = "add"            # acc + streamed vector / scalar
    MUL = "mul"            # acc * streamed vector / scalar
    GELU = "gelu"          # LUT special function (G-Type only)
    EXP = "exp"            # LUT special function (E-Type only)


@dataclass(frozen=True)
class SimdStep:
    """One elementwise step in a chained dataflow.

    Attributes:
        opcode: ALU operation.
        operand: scalar constant, a matrix matching the GEMM output shape,
            or None for LUT functions.
        broadcast_rows: when the operand is 1-D of width n, broadcast it to
            every row (bias addition).
    """

    opcode: SimdOpcode
    operand: Union[None, float, np.ndarray] = None
    broadcast_rows: bool = False


@dataclass
class ExecutionStats:
    """Tile and cycle accounting from one functional execution."""

    tiles: int = 0
    matmul_cycles: int = 0
    simd_cycles: int = 0
    streamed_bytes: int = 0
    mac_operations: int = 0


class SystolicArray:
    """An n×n ProSE systolic array (functional model).

    Args:
        size: array dimension n (the paper uses 16, 32, 64).
        array_type: M (matmul+SIMD), G (adds GELU LUTs), or E (adds Exp).
    """

    def __init__(self, size: int, array_type: ArrayType = ArrayType.M) -> None:
        if size <= 0:
            raise ValueError("array size must be positive")
        self.size = size
        self.array_type = array_type
        self._gelu: Optional[SpecialFunctionLut] = (
            make_gelu_lut() if array_type.has_gelu else None)
        self._exp: Optional[SpecialFunctionLut] = (
            make_exp_lut() if array_type.has_exp else None)

    def _tile_counts(self, m: int, n_out: int) -> Tuple[int, int]:
        return (math.ceil(m / self.size), math.ceil(n_out / self.size))

    def matmul(self, a: np.ndarray, b: np.ndarray,
               stats: Optional[ExecutionStats] = None,
               assume_bf16_b: bool = False) -> np.ndarray:
        """Compute ``A @ B`` with bf16 operands and fp32 accumulation.

        Shapes are unrestricted; larger matrices are tiled over the array
        exactly as Figure 11(c) decomposes them (accounted in ``stats``).

        ``assume_bf16_b=True`` skips rounding ``b`` when the caller knows
        it already holds exact bfloat16 patterns (a weight matrix rounded
        once, when the model was built).  ``to_bfloat16`` is idempotent,
        so the elision is bit-identical.
        """
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"bad matmul shapes {a.shape} x {b.shape}")
        m, k = a.shape
        n_out = b.shape[1]
        result = to_bfloat16(a) @ (b if assume_bf16_b else to_bfloat16(b))
        if stats is not None:
            rows, cols = self._tile_counts(m, n_out)
            tiles = rows * cols
            stats.tiles += tiles
            stats.matmul_cycles += tiles * (k + 2 * self.size)
            stats.mac_operations += m * k * n_out
            stats.streamed_bytes += 2 * (rows * self.size * k      # A tiles
                                         + tiles * k * self.size)  # B tiles
        return result.astype(np.float32, copy=False)

    def simd(self, resident: np.ndarray, step: SimdStep,
             stats: Optional[ExecutionStats] = None,
             assume_bf16: bool = False) -> np.ndarray:
        """Apply one SIMD/special-function step to the resident matrix.

        The accumulators hold fp32 values; ALU inputs and outputs are
        bfloat16, matching the left-rotation datapath of Figure 5(c).

        ``assume_bf16=True`` skips the input rounding when the caller
        knows ``resident`` already holds exact bfloat16 patterns (every
        SIMD output is one — ADD/MUL round through ``to_bfloat16`` and
        LUT results are bf16 table entries).  ``to_bfloat16`` is
        idempotent, so the elision is bit-identical.
        """
        resident = np.asarray(resident, dtype=np.float32)
        values = resident if assume_bf16 else to_bfloat16(resident)
        if step.opcode is SimdOpcode.GELU:
            if self._gelu is None:
                raise ValueError(
                    f"{self.array_type.value}-Type array has no GELU LUT")
            result = self._gelu.lookup(values, assume_bf16=True)
        elif step.opcode is SimdOpcode.EXP:
            if self._exp is None:
                raise ValueError(
                    f"{self.array_type.value}-Type array has no Exp LUT")
            result = self._exp.lookup(values, assume_bf16=True)
        else:
            operand = step.operand
            if operand is None:
                raise ValueError(f"{step.opcode} requires an operand")
            # Round a bias row before broadcasting it, not the matrix.
            operand = to_bfloat16(operand)
            if step.broadcast_rows and operand.ndim == 1:
                operand = np.broadcast_to(operand, resident.shape)
            if step.opcode is SimdOpcode.ADD:
                result = to_bfloat16(values + operand)
            elif step.opcode is SimdOpcode.MUL:
                result = to_bfloat16(values * operand)
            else:  # pragma: no cover - enum is exhaustive
                raise ValueError(f"unknown opcode {step.opcode}")
        if stats is not None:
            rows, cols = self._tile_counts(*resident.shape)
            # One left-rotation pass: n simd-clock cycles per tile.
            stats.simd_cycles += rows * cols * self.size
            if step.opcode in (SimdOpcode.ADD, SimdOpcode.MUL) and not (
                    np.isscalar(step.operand) or
                    isinstance(step.operand, float)):
                stats.streamed_bytes += 2 * int(np.prod(resident.shape))
        return np.asarray(result, dtype=np.float32)

    def execute_chain(self, a: np.ndarray, b: np.ndarray,
                      steps: Tuple[SimdStep, ...] = (),
                      stats: Optional[ExecutionStats] = None,
                      assume_bf16_b: bool = False) -> np.ndarray:
        """Run MatMul followed by chained SIMD steps in one local dataflow.

        This is the paper's central mechanism: the GEMM result never leaves
        the accumulators; each chained elementwise op reads and rewrites
        them via left rotation, with zero intermediate traffic to the host.

        Only the first SIMD step rounds its input: the GEMM result carries
        fp32 accumulations, but every step *output* is already exact
        bfloat16, so subsequent steps (and the final read-out) skip the
        redundant re-rounding.  ``assume_bf16_b`` is passed to
        :meth:`matmul`.
        """
        resident = self.matmul(a, b, stats, assume_bf16_b)
        is_bf16 = False
        for step in steps:
            resident = self.simd(resident, step, stats,
                                 assume_bf16=is_bf16)
            is_bf16 = True
        if stats is not None:
            stats.streamed_bytes += 2 * int(np.prod(resident.shape))
        return resident if is_bf16 else to_bfloat16(resident)
