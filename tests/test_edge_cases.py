"""Edge-case and cross-cutting coverage tests."""

import pytest

from repro.arch import best_perf
from repro.baselines import a100
from repro.cli import main
from repro.dataflow import ArrayType, build_graph_for
from repro.model import protein_bert_tiny
from repro.trace import OpKind, TraceSpec, elementwise_op, trace_model


class TestHardwareConfigQueries:
    def test_groups_of_returns_matching_type(self):
        config = best_perf()
        m_groups = config.groups_of(ArrayType.M)
        assert all(g.array_type is ArrayType.M for g in m_groups)
        assert config.count_of(ArrayType.E) == 22

    def test_immutability(self):
        config = best_perf()
        with pytest.raises(Exception):
            config.threads = 4  # type: ignore[misc]


class TestGraphWeightedCriticalPath:
    def test_weighted_critical_path(self):
        graph = build_graph_for(protein_bert_tiny(), batch=1, seq_len=8)
        unit = graph.critical_path_length(lambda node: 1.0)
        doubled = graph.critical_path_length(lambda node: 2.0)
        assert doubled == pytest.approx(2 * unit)

    def test_zero_cost_path(self):
        graph = build_graph_for(protein_bert_tiny(), batch=1, seq_len=8)
        assert graph.critical_path_length(lambda node: 0.0) == 0.0


class TestRooflineBranches:
    def test_softmax_uses_input_elements(self):
        device = a100()
        softmax = elementwise_op(OpKind.SOFTMAX, (4, 128, 128))
        summed = elementwise_op(OpKind.SUM, (4, 128, 128))
        # Softmax makes more memory passes than a single reduction.
        assert device.op_seconds(softmax) > device.op_seconds(summed)

    def test_transpose_cheap_but_not_free(self):
        device = a100()
        transpose = elementwise_op(OpKind.TRANSPOSE, (64, 64))
        assert device.op_seconds(transpose) \
            >= device.spec.kernel_overhead

    def test_memory_bound_gemm(self):
        # A skinny GEMM (k = 1) is memory-bound on the A100 model.
        device = a100()
        from repro.trace import matmul_op
        skinny = matmul_op(4096, 1, 4096)
        bytes_time = (skinny.bytes_moved(2)
                      / device.spec.memory_bandwidth)
        assert device.op_seconds(skinny) >= bytes_time

    def test_batch_throughput_positive_all_lengths(self):
        device = a100()
        config = protein_bert_tiny(max_position=512)
        for seq_len in (16, 64, 256):
            assert device.throughput(config, 4, seq_len) > 0


class TestTraceEdgeCases:
    def test_single_layer_model(self):
        config = protein_bert_tiny(num_layers=1)
        trace_model(TraceSpec(config, batch=1, seq_len=4))
        graph = build_graph_for(config, batch=1, seq_len=4)
        assert len(graph.dataflows) == 7     # 5 DF1 + 1 DF2 + 1 DF3

    def test_seq_len_one(self):
        config = protein_bert_tiny()
        graph = build_graph_for(config, batch=1, seq_len=1)
        assert graph.validate_acyclic()

    def test_large_batch_symbolic_trace_fast(self):
        from repro.model import protein_bert_base
        ops = trace_model(TraceSpec(protein_bert_base(), batch=1024,
                                    seq_len=2048))
        assert len(ops) > 0


class TestCliExperiments:
    def test_named_experiment_runs(self, capsys):
        assert main(["experiments", "Table 3"]) == 0
        out = capsys.readouterr().out
        assert "DSE configuration space" in out

    def test_unknown_experiment_rejected(self, capsys):
        from repro.experiments.runner import run_all

        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", "Table 3", "Figure 99"])
        text = str(exit_info.value.code)
        assert text.startswith("unknown experiment 'Figure 99'; choose "
                               "from: Figure 1, ")
        assert "Monitoring" in text and "\n" not in text
        assert capsys.readouterr().out == ""
        with pytest.raises(ValueError, match="Figure 99"):
            run_all(only=["Figure 99"], verbose=False)

    def test_compare_single_baseline(self, capsys):
        assert main(["compare", "--baseline", "tpuv3", "--batch", "16",
                     "--seq-len", "128"]) == 0
        out = capsys.readouterr().out
        assert "TPUv3" in out and "A100" not in out
