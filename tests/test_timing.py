"""Tests for the analytic per-dataflow timing model."""

import dataclasses

import pytest

from repro.arch import (
    best_perf,
    gemm_cycles,
    gemm_stream_bytes,
    gemm_tiles,
    simd_cycles_for,
    simd_stream_bytes,
    time_dataflow,
)
from repro.dataflow import DataflowKind, build_graph_for
from repro.model import protein_bert_base
from repro.trace import OpKind, bmm_op, elementwise_op, matmul_op


@pytest.fixture(scope="module")
def config():
    return best_perf()


@pytest.fixture(scope="module")
def graph():
    return build_graph_for(protein_bert_base(), batch=4, seq_len=512)


def dataflow_of(graph, kind):
    return next(df for _, df in graph.dataflows if df.kind is kind)


class TestGemmTiming:
    def test_tiles_exact_fit(self):
        op = matmul_op(128, 768, 64)
        assert gemm_tiles(op, 64) == (2, 1, 1)

    def test_tiles_ceil(self):
        op = matmul_op(100, 768, 70)
        assert gemm_tiles(op, 64) == (2, 2, 1)

    def test_bmm_batch_multiplier(self):
        op = bmm_op(12, 64, 64, 64)
        rows, cols, batch = gemm_tiles(op, 64)
        assert batch == 12

    def test_cycles_formula(self):
        op = matmul_op(128, 768, 128, name="t")
        # 2x2 tiles, each k + 2n = 768 + 128 cycles.
        assert gemm_cycles(op, 64) == 4 * (768 + 128)

    def test_small_k_overhead_on_big_array(self):
        # k = 64 on a 64x64 array: 3x fill/drain overhead -- the paper's
        # argument for small E-Type arrays.
        small_k = bmm_op(1, 64, 64, 64)
        assert gemm_cycles(small_k, 64) / 64 == pytest.approx(3.0)
        assert gemm_cycles(small_k, 16) / (16 * 64) \
            == pytest.approx((64 + 32) / 64)

    def test_non_gemm_rejected(self):
        with pytest.raises(ValueError):
            gemm_tiles(elementwise_op(OpKind.ADD, (4,)), 16)


class TestStreamBytes:
    def test_with_buffer_is_algorithmic_minimum(self):
        op = matmul_op(128, 768, 128)
        bytes_in = gemm_stream_bytes(op, 64, use_input_buffer=True)
        assert bytes_in == 2 * (128 * 768 + 768 * 128)

    def test_without_buffer_restreams_per_tile(self):
        op = matmul_op(128, 768, 128)
        with_buffer = gemm_stream_bytes(op, 64, use_input_buffer=True)
        without = gemm_stream_bytes(op, 64, use_input_buffer=False)
        assert without > with_buffer
        # 2x2 tiles, each streaming a 64-wide strip of both operands.
        assert without == 2 * (4 * 64 * 768 * 2)

    def test_simd_matrix_operand_streams_fully(self):
        op = elementwise_op(OpKind.ADD, (64, 64))
        assert simd_stream_bytes(op) == 2 * 64 * 64

    def test_simd_bias_vector_streams_once(self):
        op = elementwise_op(OpKind.ADD, (64, 64),
                            metadata={"vector_operand": 1.0})
        assert simd_stream_bytes(op) == 2 * 64

    def test_lut_functions_stream_nothing(self):
        assert simd_stream_bytes(elementwise_op(OpKind.EXP, (64, 64))) == 0
        assert simd_stream_bytes(elementwise_op(OpKind.GELU, (64, 64))) == 0

    def test_simd_cycles_one_column_per_cycle(self):
        assert simd_cycles_for(1024, 16) == 64


class TestTimeDataflow:
    def test_dataflow1_single_accel_segment(self, graph, config):
        df1 = dataflow_of(graph, DataflowKind.DATAFLOW_1)
        timing = time_dataflow(df1, 64, config)
        assert [s.resource for s in timing.segments] == ["accel"]

    def test_dataflow3_accel_host_accel(self, graph, config):
        df3 = dataflow_of(graph, DataflowKind.DATAFLOW_3)
        timing = time_dataflow(df3, 16, config)
        assert [s.resource for s in timing.segments] \
            == ["accel", "host", "accel"]

    def test_dataflow3_host_segment_has_flops(self, graph, config):
        df3 = dataflow_of(graph, DataflowKind.DATAFLOW_3)
        timing = time_dataflow(df3, 16, config)
        host = timing.segments[1]
        assert host.host_flops > 0
        assert host.compute_seconds > 0

    def test_matmul_cycles_at_matmul_clock(self, graph, config):
        df1 = dataflow_of(graph, DataflowKind.DATAFLOW_1)
        timing = time_dataflow(df1, 64, config)
        expected = (timing.matmul_cycles / config.matmul_frequency
                    + timing.simd_cycles / config.simd_frequency)
        assert timing.accel_compute_seconds == pytest.approx(expected)

    def test_smaller_array_more_cycles(self, graph, config):
        df2 = dataflow_of(graph, DataflowKind.DATAFLOW_2)
        small = time_dataflow(df2, 16, config)
        large = time_dataflow(df2, 64, config)
        assert small.matmul_cycles > large.matmul_cycles

    def test_unchained_simd_costs_triple(self, graph):
        chained_config = best_perf()
        unchained_config = dataclasses.replace(chained_config,
                                               chained=False)
        df2 = dataflow_of(graph, DataflowKind.DATAFLOW_2)
        chained = time_dataflow(df2, 64, chained_config)
        unchained = time_dataflow(df2, 64, unchained_config)
        assert unchained.simd_cycles == 3 * chained.simd_cycles
        assert unchained.total_stream_bytes > chained.total_stream_bytes

    def test_no_buffer_increases_traffic(self, graph):
        with_buffer = best_perf()
        without = dataclasses.replace(with_buffer, use_input_buffer=False)
        df1 = dataflow_of(graph, DataflowKind.DATAFLOW_1)
        assert (time_dataflow(df1, 64, without).total_stream_bytes
                > time_dataflow(df1, 64, with_buffer).total_stream_bytes)
