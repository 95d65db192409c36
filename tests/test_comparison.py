"""Tests for the TPUv2-vs-ProSE microarchitectural step comparison."""


from repro.arch.comparison import (
    StepKind,
    compare_matmul,
    compare_muladd,
    format_comparison,
    prose_matmul_trace,
    prose_muladd_trace,
    tpu_matmul_trace,
    tpu_muladd_trace,
)


class TestMatmulComparison:
    def test_paper_step_counts(self):
        # Figure 11: TPUv2 needs eight operations, ProSE four.
        comparison = compare_matmul()
        assert comparison.tpu.num_steps == 8
        assert comparison.prose.num_steps == 4

    def test_prose_has_no_unified_buffer(self):
        comparison = compare_matmul()
        assert comparison.prose.buffer_trips == 0
        assert comparison.tpu.buffer_trips >= 3

    def test_intermediate_bytes_scale_with_shape(self):
        small = tpu_matmul_trace(4, 4, 4)
        large = tpu_matmul_trace(64, 64, 64)
        assert large.intermediate_bytes > small.intermediate_bytes
        assert prose_matmul_trace(64, 64, 64).intermediate_bytes == 0

    def test_weight_stationary_vs_output_stationary(self):
        tpu = tpu_matmul_trace(4, 4, 4)
        assert any("weight-stationary" in step.description
                   for step in tpu.steps)
        prose = prose_matmul_trace(4, 4, 4)
        assert any("accumulator" in step.description
                   for step in prose.steps)


class TestMulAddComparison:
    def test_tpu_needs_multiple_trips(self):
        # Figure 12: the TPU traverses its global dataflow two-three
        # times while ProSE makes one trip of the local dataflow.
        comparison = compare_muladd()
        assert comparison.tpu.buffer_trips >= 5
        assert comparison.prose.buffer_trips == 0
        assert comparison.tpu.num_steps / comparison.prose.num_steps > 1.5

    def test_prose_uses_left_rotation(self):
        trace = prose_muladd_trace(4, 4)
        rotations = [step for step in trace.steps
                     if "left-rotate" in step.description]
        assert len(rotations) == 2      # MUL pass then ADD pass

    def test_tpu_intermediate_traffic_dominates(self):
        tpu = tpu_muladd_trace(64, 64)
        prose = prose_muladd_trace(64, 64)
        streamed = sum(step.bytes_moved for step in prose.steps
                       if step.kind is StepKind.STREAM_IN)
        assert tpu.intermediate_bytes > 2 * streamed


class TestFormatting:
    def test_renders_both_machines(self):
        text = format_comparison(compare_matmul())
        assert "TPUv2: 8 operations" in text
        assert "ProSE: 4 operations" in text

    def test_numbered_steps(self):
        text = format_comparison(compare_muladd())
        assert "  1. [" in text
