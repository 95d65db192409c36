"""Tests for dataflow patterns, graph, and builder."""

from collections import Counter

import pytest

from repro.dataflow import (
    ArrayType,
    Dataflow,
    DataflowGraph,
    DataflowKind,
    HostTask,
    TraceStructureError,
    build_dataflow_graph,
    build_graph_for,
)
from repro.model import protein_bert_base, protein_bert_tiny
from repro.trace import (
    OpKind,
    TraceSpec,
    elementwise_op,
    matmul_op,
    trace_model,
)
from tests.oracles.dataflow import (
    coverage_fraction,
    critical_path_length,
    validate_acyclic,
)


class TestPatterns:
    def test_dataflow_to_array_type_mapping(self):
        assert DataflowKind.DATAFLOW_1.array_type is ArrayType.M
        assert DataflowKind.DATAFLOW_2.array_type is ArrayType.G
        assert DataflowKind.DATAFLOW_3.array_type is ArrayType.E

    def test_array_type_capabilities(self):
        assert ArrayType.G.has_gelu and not ArrayType.G.has_exp
        assert ArrayType.E.has_exp and not ArrayType.E.has_gelu
        assert not ArrayType.M.has_gelu and not ArrayType.M.has_exp

    def test_dataflow_rejects_wrong_op_kind(self):
        with pytest.raises(ValueError):
            Dataflow(kind=DataflowKind.DATAFLOW_1,
                     ops=(elementwise_op(OpKind.GELU, (4,)),))

    def test_dataflow_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataflow(kind=DataflowKind.DATAFLOW_1, ops=())

    def test_host_ops_only_on_dataflow3(self):
        with pytest.raises(ValueError):
            Dataflow(kind=DataflowKind.DATAFLOW_1,
                     ops=(matmul_op(2, 2, 2),),
                     host_ops=(elementwise_op(OpKind.SUM, (2,)),))

    def test_gemm_and_simd_partition(self):
        dataflow = Dataflow(
            kind=DataflowKind.DATAFLOW_2,
            ops=(matmul_op(4, 4, 4), elementwise_op(OpKind.ADD, (4, 4)),
                 elementwise_op(OpKind.GELU, (4, 4))))
        assert len(dataflow.gemm_ops) == 1
        assert len(dataflow.simd_ops) == 2

    def test_stream_bytes_exclude_intermediates(self):
        # MatMul (4,4,4) + GELU: only the two operands stream in (GELU has
        # no streamed operand); intermediates stay in the accumulators.
        dataflow = Dataflow(
            kind=DataflowKind.DATAFLOW_2,
            ops=(matmul_op(4, 4, 4), elementwise_op(OpKind.GELU, (4, 4))))
        assert dataflow.stream_bytes(2) == 2 * (16 + 16 + 16)


class TestGraphStructure:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_graph_for(protein_bert_base(), batch=2, seq_len=64)

    def test_paper_dataflow_mix(self, graph):
        # Figure 7: per layer 5x DF1 (4 attention + 1 output), 1x DF2,
        # 1x DF3, over 12 layers.
        kinds = [df.kind for _, df in graph.dataflows]
        assert kinds.count(DataflowKind.DATAFLOW_1) == 5 * 12
        assert kinds.count(DataflowKind.DATAFLOW_2) == 12
        assert kinds.count(DataflowKind.DATAFLOW_3) == 12

    def test_host_tasks_are_norms_and_embeddings(self, graph):
        names = [node.name for node in graph.nodes
                 if isinstance(node, HostTask)]
        assert names[0] == "embeddings"
        assert sum("layernorm" in n for n in names) == 24

    def test_acyclic(self, graph):
        assert validate_acyclic(graph)

    def test_qkv_parallel_dependencies(self, graph):
        # The three projections of layer 0 all depend on the embeddings.
        dataflows = graph.dataflows
        q, k, v = (df for _, df in dataflows[:3])
        assert q.deps == k.deps == v.deps

    def test_dataflow3_depends_on_projections(self, graph):
        scores = next(df for _, df in graph.dataflows
                      if df.kind is DataflowKind.DATAFLOW_3)
        assert len(scores.deps) == 3

    def test_softmax_split_host_ops(self, graph):
        scores = next(df for _, df in graph.dataflows
                      if df.kind is DataflowKind.DATAFLOW_3)
        kinds = [op.kind for op in scores.host_ops]
        assert kinds == [OpKind.SUM, OpKind.DIV]
        accel_kinds = [op.kind for op in scores.ops]
        assert accel_kinds == [OpKind.BMM, OpKind.DIV, OpKind.EXP,
                               OpKind.BMM]

    def test_mask_included_when_traced(self):
        graph = build_graph_for(protein_bert_tiny(), batch=1, seq_len=16,
                                with_mask=True)
        scores = next(df for _, df in graph.dataflows
                      if df.kind is DataflowKind.DATAFLOW_3)
        kinds = [op.kind for op in scores.ops]
        assert kinds == [OpKind.BMM, OpKind.DIV, OpKind.ADD, OpKind.EXP,
                         OpKind.BMM]

    def test_coverage_above_ninety_percent(self, graph):
        # Paper: the three dataflows cover ~90% of inference time; on a
        # FLOP basis coverage is higher still.
        assert coverage_fraction(graph) > 0.95

    def test_critical_path_unit_cost(self, graph):
        # Unit cost per node: the critical path is the serial chain
        # through one layer (7 nodes) times 12 layers plus embeddings.
        length = critical_path_length(graph, lambda node: 1.0)
        assert length == 1 + 12 * 7


class TestGraphValidation:
    def test_forward_dependency_rejected(self):
        task = HostTask(ops=(elementwise_op(OpKind.LAYERNORM, (2,)),),
                        deps=(1,))
        with pytest.raises(ValueError):
            DataflowGraph([task])

    def test_count_by_array_type(self):
        graph = build_graph_for(protein_bert_tiny(), batch=1, seq_len=8)
        counts = Counter(df.array_type for _, df in graph.dataflows)
        assert counts[ArrayType.M] == 10
        assert counts[ArrayType.G] == 2
        assert counts[ArrayType.E] == 2


class TestBuilderErrors:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceStructureError):
            build_dataflow_graph([])

    def test_truncated_trace_rejected(self):
        ops = trace_model(TraceSpec(protein_bert_tiny(), batch=1,
                                    seq_len=8))
        with pytest.raises(TraceStructureError):
            build_dataflow_graph(ops[:10])

    def test_shuffled_trace_rejected(self):
        ops = list(trace_model(TraceSpec(protein_bert_tiny(), batch=1,
                                         seq_len=8)))
        softmax = next(i for i, op in enumerate(ops)
                       if op.kind is OpKind.SOFTMAX)
        gemm = next(i for i, op in enumerate(ops)
                    if op.kind is OpKind.MATMUL)
        ops[softmax], ops[gemm] = ops[gemm], ops[softmax]
        with pytest.raises(TraceStructureError):
            build_dataflow_graph(ops)

    def test_embeddings_only_rejected(self):
        ops = trace_model(TraceSpec(protein_bert_tiny(), batch=1,
                                    seq_len=8))[:4]
        with pytest.raises(TraceStructureError):
            build_dataflow_graph(ops)
