"""Cycle-by-cycle PE-grid simulation of one ProSE systolic array.

This plays the role of the paper's Verilog functional simulation (Figure
15): every register transfer is modeled — skewed operand injection, per-PE
MAC, left-rotation through the SIMD column — so the fast functional model
in :mod:`repro.arch.systolic` can be validated against it bit-for-bit on
small matrices.

Only use this for small arrays/tests; it is intentionally literal and slow.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.model.tensors import to_bfloat16
from .pe import ProcessingElement


class CycleAccurateArray:
    """An n×n output-stationary systolic array simulated per cycle.

    Args:
        size: array dimension ``n``.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("array size must be positive")
        self.size = size
        self.grid: List[List[ProcessingElement]] = [
            [ProcessingElement() for _ in range(size)] for _ in range(size)]
        self.cycles_elapsed = 0

    def clear(self) -> None:
        """Zero every accumulator (start of a new output tile)."""
        for row in self.grid:
            for pe in row:
                pe.clear()

    def accumulators(self) -> np.ndarray:
        """Snapshot of all accumulator values (fp32)."""
        return np.array([[pe.accumulator for pe in row] for row in self.grid],
                        dtype=np.float32)

    def load_accumulators(self, values: np.ndarray) -> None:
        """Preload accumulators (e.g. to test simd mode in isolation)."""
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (self.size, self.size):
            raise ValueError("accumulator preload must be n×n")
        for i, row in enumerate(self.grid):
            for j, pe in enumerate(row):
                pe.accumulator = float(values[i, j])

    # ------------------------------------------------------------------
    # matmul mode (Figure 5b): data moves top→bottom and left→right with
    # skewed injection; each PE MACs its two registers every cycle.
    # ------------------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Compute ``A @ B`` for A of shape (n, k) and B of shape (k, n).

        Operands are rounded to bfloat16 at the streaming buffers; the MAC
        accumulates in fp32.  Returns the accumulator grid after draining.
        """
        n = self.size
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.shape[0] != n or b.shape[1] != n or a.shape[1] != b.shape[0]:
            raise ValueError("matmul operands must be (n,k) and (k,n)")
        k = a.shape[1]
        a = to_bfloat16(a)
        b = to_bfloat16(b)

        self.clear()
        total_cycles = k + 2 * (n - 1) + 1
        for cycle in range(total_cycles):
            # Shift right/down starting from the far corner so each register
            # reads its neighbour's *previous* value.
            for i in range(n - 1, -1, -1):
                for j in range(n - 1, -1, -1):
                    pe = self.grid[i][j]
                    a_in = (self.grid[i][j - 1].reg_a if j > 0
                            else self._edge(a, i, cycle - i, from_left=True))
                    b_in = (self.grid[i - 1][j].reg_b if i > 0
                            else self._edge(b, cycle - j, j, from_left=False))
                    pe.reg_a = a_in
                    pe.reg_b = b_in
            for row in self.grid:
                for pe in row:
                    pe.mac()
            self.cycles_elapsed += 1
        return self.accumulators()

    @staticmethod
    def _edge(matrix: np.ndarray, i: int, j: int, from_left: bool) -> float:
        """Skewed edge injection; zero outside the valid operand window."""
        k = matrix.shape[1] if from_left else matrix.shape[0]
        index = j if from_left else i
        if 0 <= index < k:
            return float(matrix[i, j])
        return 0.0

    # ------------------------------------------------------------------
    # simd mode (Figure 5c): the array acts as a large left column rotator.
    # Each cycle the leftmost column exits into the SIMD ALUs, the result
    # wraps into the rightmost column, everything else shifts left.
    # ------------------------------------------------------------------

    def simd_rotate(self, alu: Callable[[np.ndarray, int], np.ndarray],
                    frequency_ratio: int = 2) -> np.ndarray:
        """Apply one elementwise op to the resident matrix via left rotation.

        Args:
            alu: callable ``(column_values, column_index) -> results``; the
                column index identifies which original matrix column is at
                the SIMD ALUs this cycle (so a streamed vector operand can
                supply the matching column).
            frequency_ratio: matmul-clock cycles per simd-clock cycle (the
                paper double-pumps matmul at 1.6 GHz vs simd at 800 MHz).

        Returns:
            The accumulator grid after n rotations (back in place).
        """
        n = self.size
        for step in range(n):
            column = np.array([self.grid[i][0].accumulator for i in range(n)],
                              dtype=np.float32)
            results = to_bfloat16(np.asarray(alu(column, step),
                                             dtype=np.float32))
            if results.shape != (n,):
                raise ValueError("ALU must return one result per row")
            for i in range(n):
                for j in range(n - 1):
                    self.grid[i][j].accumulator = self.grid[i][j + 1].accumulator
                self.grid[i][n - 1].accumulator = float(results[i])
            self.cycles_elapsed += frequency_ratio
        return self.accumulators()
