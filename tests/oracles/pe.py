"""Processing element (PE) microarchitecture (Figure 10b).

Each PE holds two 16-bit operand registers (REG_A, REG_B), a bfloat16
multiplier, and a 32-bit accumulator used both for MAC accumulation and as
the *only* intermediate storage in the ProSE design (no scratchpad).  In
matmul mode operands flow top→bottom and left→right; in simd mode the
accumulator contents rotate right→left toward the SIMD column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.tensors import to_bfloat16


@dataclass
class ProcessingElement:
    """One multiply-accumulate cell of a ProSE systolic array.

    Attributes:
        reg_a: operand register fed from the left neighbour (bfloat16).
        reg_b: operand register fed from the top neighbour (bfloat16).
        accumulator: 32-bit accumulation register; doubles as intermediate
            storage between chained dataflow ops.
    """

    reg_a: float = 0.0
    reg_b: float = 0.0
    accumulator: float = 0.0
    mac_count: int = field(default=0, repr=False)

    def load(self, a_in: float, b_in: float) -> None:
        """Latch new operands arriving from the left and top."""
        self.reg_a = float(to_bfloat16(np.float32(a_in)))
        self.reg_b = float(to_bfloat16(np.float32(b_in)))

    def mac(self) -> None:
        """accumulator += reg_a * reg_b with bf16 multiply, fp32 add."""
        product = np.float32(self.reg_a) * np.float32(self.reg_b)
        self.accumulator = float(np.float32(self.accumulator) + product)
        self.mac_count += 1

    def clear(self) -> None:
        """Reset the accumulator for a new output tile."""
        self.accumulator = 0.0

    @property
    def output(self) -> float:
        """The accumulator value truncated to bfloat16 on read-out.

        Figure 10(b) labels the PE output ``OUTPUT[31:16]`` — the high half
        of the 32-bit accumulator, i.e. a bfloat16 view of the result.
        """
        return float(to_bfloat16(np.float32(self.accumulator)))
