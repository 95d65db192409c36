"""Tests for the systolic arrays: PE, cycle-accurate grid, functional model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ExecutionStats, SimdOpcode, SimdStep, SystolicArray
from repro.dataflow import ArrayType
from repro.model import to_bfloat16
from tests.oracles.cycle_sim import CycleAccurateArray
from tests.oracles.pe import ProcessingElement


class TestProcessingElement:
    def test_mac_accumulates(self):
        pe = ProcessingElement()
        pe.load(2.0, 3.0)
        pe.mac()
        pe.load(1.0, 4.0)
        pe.mac()
        assert pe.accumulator == pytest.approx(10.0)

    def test_operands_rounded_to_bf16(self):
        pe = ProcessingElement()
        pe.load(1.0 + 2.0 ** -12, 1.0)
        assert pe.reg_a == 1.0

    def test_clear(self):
        pe = ProcessingElement()
        pe.load(2.0, 2.0)
        pe.mac()
        pe.clear()
        assert pe.accumulator == 0.0

    def test_output_is_bf16_view(self):
        pe = ProcessingElement()
        pe.accumulator = 1.0 + 2.0 ** -12
        assert pe.output == 1.0

    def test_mac_count_tracks(self):
        pe = ProcessingElement()
        for _ in range(5):
            pe.mac()
        assert pe.mac_count == 5


class TestCycleAccurateMatmul:
    def test_identity(self):
        array = CycleAccurateArray(3)
        a = np.eye(3, dtype=np.float32)
        b = np.arange(9, dtype=np.float32).reshape(3, 3)
        assert np.allclose(array.matmul(a, b), b)

    def test_against_numpy_small(self):
        rng = np.random.default_rng(1)
        array = CycleAccurateArray(4)
        a = to_bfloat16(rng.normal(size=(4, 7)).astype(np.float32))
        b = to_bfloat16(rng.normal(size=(7, 4)).astype(np.float32))
        assert np.allclose(array.matmul(a, b), a @ b, rtol=1e-5, atol=1e-5)

    def test_cycle_count_is_k_plus_2n(self):
        array = CycleAccurateArray(4)
        array.matmul(np.zeros((4, 6), dtype=np.float32),
                     np.zeros((6, 4), dtype=np.float32))
        assert array.cycles_elapsed == 6 + 2 * (4 - 1) + 1

    def test_shape_validation(self):
        array = CycleAccurateArray(3)
        with pytest.raises(ValueError):
            array.matmul(np.zeros((2, 4)), np.zeros((4, 3)))

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_functional_model(self, n, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        grid = CycleAccurateArray(n).matmul(a, b)
        functional = SystolicArray(n, ArrayType.M).matmul(a, b)
        assert np.allclose(grid, functional, rtol=1e-5, atol=1e-6)


class TestCycleAccurateSimd:
    def test_left_rotation_returns_in_place(self):
        array = CycleAccurateArray(4)
        values = np.arange(16, dtype=np.float32).reshape(4, 4)
        array.load_accumulators(values)
        result = array.simd_rotate(lambda column, j: column)
        assert np.array_equal(result, values)

    def test_columnwise_vector_add(self):
        array = CycleAccurateArray(3)
        values = np.ones((3, 3), dtype=np.float32)
        operand = np.array([[1., 2., 3.]] * 3, dtype=np.float32)
        array.load_accumulators(values)
        result = array.simd_rotate(
            lambda column, j: column + operand[:, j])
        assert np.allclose(result, values + operand)

    def test_simd_cycles_at_half_clock(self):
        array = CycleAccurateArray(4)
        array.load_accumulators(np.zeros((4, 4), dtype=np.float32))
        array.simd_rotate(lambda column, j: column, frequency_ratio=2)
        assert array.cycles_elapsed == 8   # n rotations x 2 matmul cycles

    def test_alu_result_rounded_to_bf16(self):
        array = CycleAccurateArray(2)
        array.load_accumulators(np.zeros((2, 2), dtype=np.float32))
        fine = 1.0 + 2.0 ** -12
        result = array.simd_rotate(lambda column, j: column + fine)
        assert np.allclose(result, 1.0)

    def test_wrong_alu_width_rejected(self):
        array = CycleAccurateArray(3)
        array.load_accumulators(np.zeros((3, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            array.simd_rotate(lambda column, j: np.zeros(2))


class TestFunctionalSystolicArray:
    def test_matmul_tiles_counted(self):
        array = SystolicArray(4, ArrayType.M)
        stats = ExecutionStats()
        array.matmul(np.zeros((8, 6), dtype=np.float32),
                     np.zeros((6, 12), dtype=np.float32), stats)
        assert stats.tiles == 2 * 3
        assert stats.matmul_cycles == 6 * (6 + 8)
        assert stats.mac_operations == 8 * 6 * 12

    def test_matmul_ragged_tiles(self):
        array = SystolicArray(4, ArrayType.M)
        stats = ExecutionStats()
        array.matmul(np.zeros((5, 3), dtype=np.float32),
                     np.zeros((3, 9), dtype=np.float32), stats)
        assert stats.tiles == 2 * 3

    def test_simd_add_broadcast_bias(self):
        array = SystolicArray(4, ArrayType.M)
        resident = np.zeros((4, 4), dtype=np.float32)
        bias = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        out = array.simd(resident, SimdStep(SimdOpcode.ADD, bias,
                                            broadcast_rows=True))
        assert np.allclose(out, np.tile(bias, (4, 1)))

    def test_simd_mul_scalar(self):
        array = SystolicArray(4, ArrayType.M)
        resident = np.full((4, 4), 3.0, dtype=np.float32)
        out = array.simd(resident, SimdStep(SimdOpcode.MUL, 0.5))
        assert np.allclose(out, 1.5)

    def test_gelu_requires_g_type(self):
        with pytest.raises(ValueError):
            SystolicArray(4, ArrayType.M).simd(
                np.zeros((4, 4), dtype=np.float32),
                SimdStep(SimdOpcode.GELU))

    def test_exp_requires_e_type(self):
        with pytest.raises(ValueError):
            SystolicArray(4, ArrayType.G).simd(
                np.zeros((4, 4), dtype=np.float32),
                SimdStep(SimdOpcode.EXP))

    def test_g_type_gelu_matches_lut(self):
        array = SystolicArray(4, ArrayType.G)
        resident = np.linspace(-3, 3, 16).reshape(4, 4).astype(np.float32)
        out = array.simd(resident, SimdStep(SimdOpcode.GELU))
        from repro.arch import make_gelu_lut
        assert np.allclose(out, make_gelu_lut().lookup(resident))

    def test_add_requires_operand(self):
        array = SystolicArray(4, ArrayType.M)
        with pytest.raises(ValueError):
            array.simd(np.zeros((4, 4), dtype=np.float32),
                       SimdStep(SimdOpcode.ADD))

    def test_execute_chain_dataflow1(self):
        # MatMul -> bias add -> residual add with bf16 semantics.
        rng = np.random.default_rng(0)
        array = SystolicArray(8, ArrayType.M)
        a = rng.normal(size=(8, 16)).astype(np.float32)
        w = rng.normal(size=(16, 8)).astype(np.float32)
        bias = rng.normal(size=8).astype(np.float32)
        residual = rng.normal(size=(8, 8)).astype(np.float32)
        out = array.execute_chain(
            a, w, (SimdStep(SimdOpcode.ADD, bias, broadcast_rows=True),
                   SimdStep(SimdOpcode.ADD, residual)))
        reference = to_bfloat16(a) @ to_bfloat16(w) + bias + residual
        assert np.abs(out - reference).max() < 0.1

    def test_execute_chain_counts_simd_cycles(self):
        array = SystolicArray(4, ArrayType.M)
        stats = ExecutionStats()
        array.execute_chain(
            np.zeros((8, 4), dtype=np.float32),
            np.zeros((4, 8), dtype=np.float32),
            (SimdStep(SimdOpcode.MUL, 2.0),), stats)
        # 2x2 tiles of the 8x8 output, one rotation (4 cycles) each.
        assert stats.simd_cycles == 4 * 4

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            SystolicArray(0, ArrayType.M)
