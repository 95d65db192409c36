"""Differential verification harness for the accelerator models.

Plays the role of a randomized RTL testbench: structured random test
vectors exercise every operation chain the dataflows use, and three
implementations are compared —

1. the **float reference** (NumPy float32, the golden model),
2. the **functional model** (:class:`repro.arch.systolic.SystolicArray`),
3. the **cycle-accurate PE grid**
   (:class:`tests.oracles.cycle_sim.CycleAccurateArray`).

Functional vs cycle-accurate must agree *exactly* (both implement the
same bfloat16 datapath); functional vs float reference must agree within
the bfloat16/LUT error budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.arch.systolic import SimdOpcode, SimdStep, SystolicArray
from repro.dataflow.patterns import ArrayType
from repro.model.activations import gelu as gelu_reference
from repro.model.tensors import to_bfloat16

from .cycle_sim import CycleAccurateArray

#: Error budget for functional-vs-float comparisons, relative to the
#: operand magnitude scale (bf16 epsilon times accumulation headroom).
RELATIVE_TOLERANCE = 0.02

#: Absolute error floor: the GELU LUT truncates inputs below its
#: exponent window (|x| < 2**-4) to 0, contributing up to
#: GELU(2**-4) ~ 0.033 of error regardless of the output scale, on top
#: of bf16 rounding of small outputs.
ABSOLUTE_TOLERANCE = 0.04


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one differential test case."""

    description: str
    exact_match: bool          # functional == cycle-accurate
    reference_error: float     # max |functional - float reference|
    reference_scale: float     # magnitude scale of the reference output
    relative_tolerance: float = RELATIVE_TOLERANCE

    @property
    def passed(self) -> bool:
        budget = (self.relative_tolerance * max(self.reference_scale, 1.0)
                  + ABSOLUTE_TOLERANCE)
        return self.exact_match and self.reference_error <= budget


@dataclass
class DifferentialHarness:
    """Generates and runs structured random differential test cases.

    Args:
        seed: RNG seed for the test-vector generator.
        max_size: largest array dimension exercised (cycle-accurate
            simulation is O(n²) per cycle — keep small).
    """

    seed: int = 0
    max_size: int = 6
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # -- test-vector generators -----------------------------------------

    def _operands(self, n: int, k: int, scale: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
        a = self._rng.normal(0, scale, size=(n, k)).astype(np.float32)
        b = self._rng.normal(0, scale, size=(k, n)).astype(np.float32)
        return a, b

    def run_matmul_case(self, n: int, k: int,
                        scale: float = 1.0) -> CaseResult:
        """MatMul: functional vs cycle grid vs float reference."""
        a, b = self._operands(n, k, scale)
        functional = SystolicArray(n, ArrayType.M).matmul(a, b)
        grid = CycleAccurateArray(n).matmul(a, b)
        reference = a.astype(np.float64) @ b.astype(np.float64)
        return CaseResult(
            description=f"matmul n={n} k={k} scale={scale}",
            exact_match=bool(np.allclose(functional, grid, rtol=1e-6,
                                         atol=1e-7)),
            reference_error=float(np.max(np.abs(functional - reference))),
            reference_scale=float(np.max(np.abs(reference)) or 1.0))

    def run_chain_case(self, n: int, k: int,
                       opcode: SimdOpcode) -> CaseResult:
        """MatMul followed by one SIMD op through both models."""
        a, b = self._operands(n, k, 1.0)
        array_type = {SimdOpcode.GELU: ArrayType.G,
                      SimdOpcode.EXP: ArrayType.E}.get(opcode, ArrayType.M)
        functional_array = SystolicArray(n, array_type)

        if opcode in (SimdOpcode.ADD, SimdOpcode.MUL):
            operand = self._rng.normal(size=(n, n)).astype(np.float32)
            step = SimdStep(opcode, operand)
        else:
            operand = None
            step = SimdStep(opcode)
        functional = functional_array.execute_chain(a, b, (step,))

        grid = CycleAccurateArray(n)
        grid.matmul(a, b)

        def alu(column: np.ndarray, index: int) -> np.ndarray:
            column = to_bfloat16(column)
            if opcode is SimdOpcode.ADD:
                return column + to_bfloat16(operand[:, index])
            if opcode is SimdOpcode.MUL:
                return column * to_bfloat16(operand[:, index])
            if opcode is SimdOpcode.GELU:
                return functional_array._gelu.lookup(column)
            return functional_array._exp.lookup(column)

        grid_result = to_bfloat16(grid.simd_rotate(alu))

        resident = a.astype(np.float64) @ b.astype(np.float64)
        if opcode is SimdOpcode.ADD:
            reference = resident + operand
        elif opcode is SimdOpcode.MUL:
            reference = resident * operand
        elif opcode is SimdOpcode.GELU:
            reference = gelu_reference(resident.astype(np.float32))
        else:
            reference = np.exp(np.clip(resident, -80, 80))
        relative_tolerance = RELATIVE_TOLERANCE
        if opcode is SimdOpcode.EXP:
            # Exp turns *absolute* input error into *relative* output
            # error (|exp(x+e) - exp(x)| / exp(x) = e**e - 1), so widen
            # the budget by the measured bf16 quantization error of the
            # matmul result that feeds the LUT.
            chain_input = to_bfloat16(
                to_bfloat16(a) @ to_bfloat16(b)).astype(np.float64)
            input_error = float(np.max(np.abs(chain_input - resident)))
            relative_tolerance += float(np.expm1(input_error))
        return CaseResult(
            description=f"chain {opcode.value} n={n} k={k}",
            exact_match=bool(np.array_equal(functional, grid_result)),
            reference_error=float(np.max(np.abs(functional - reference))),
            reference_scale=float(np.max(np.abs(reference)) or 1.0),
            relative_tolerance=relative_tolerance)

    # -- campaign --------------------------------------------------------

    def run_campaign(self, cases: int = 24) -> List[CaseResult]:
        """Run a mixed campaign of matmul and chained cases."""
        results: List[CaseResult] = []
        opcodes = (SimdOpcode.ADD, SimdOpcode.MUL, SimdOpcode.GELU,
                   SimdOpcode.EXP)
        for index in range(cases):
            n = int(self._rng.integers(2, self.max_size + 1))
            k = int(self._rng.integers(1, 3 * self.max_size))
            if index % 2 == 0:
                scale = float(self._rng.choice([0.1, 1.0, 4.0]))
                results.append(self.run_matmul_case(n, k, scale))
            else:
                opcode = opcodes[(index // 2) % len(opcodes)]
                results.append(self.run_chain_case(n, k, opcode))
        return results


def campaign_report(results: Sequence[CaseResult]) -> str:
    """Summarize a campaign, listing any failures."""
    failures = [result for result in results if not result.passed]
    lines = [f"differential campaign: {len(results)} cases, "
             f"{len(results) - len(failures)} passed"]
    for failure in failures:
        lines.append(f"  FAIL {failure.description}: exact="
                     f"{failure.exact_match} err="
                     f"{failure.reference_error:.4g}")
    return "\n".join(lines)
