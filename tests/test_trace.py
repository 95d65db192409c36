"""Tests for the op taxonomy, the recorded forward pass and the symbolic tracer."""

from collections import Counter

import numpy as np
import pytest

from repro.model import ProteinBert, protein_bert_base, protein_bert_tiny
from repro.trace import (
    Op,
    OpKind,
    TraceSpec,
    bmm_op,
    elementwise_op,
    matmul_op,
    trace_layer,
    trace_model,
)


class TestOp:
    def test_matmul_flops(self):
        op = matmul_op(4, 5, 6)
        assert op.flops == 2 * 4 * 5 * 6
        assert op.elements == 24

    def test_bmm_flops(self):
        op = bmm_op(3, 4, 5, 6)
        assert op.flops == 3 * 2 * 4 * 5 * 6
        assert op.elements == 3 * 24

    def test_matmul_shape_validated(self):
        with pytest.raises(ValueError):
            Op(kind=OpKind.MATMUL, shape=(4, 5))

    def test_bmm_shape_validated(self):
        with pytest.raises(ValueError):
            Op(kind=OpKind.BMM, shape=(4, 5, 6))

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError):
            matmul_op(0, 5, 6)

    def test_sum_reduces_last_axis(self):
        op = elementwise_op(OpKind.SUM, (2, 3, 4))
        assert op.elements == 6

    def test_elementwise_flops_linear(self):
        op = elementwise_op(OpKind.ADD, (10, 10))
        assert op.flops == 100

    def test_bytes_moved_matmul(self):
        op = matmul_op(4, 5, 6)
        assert op.bytes_moved(2) == 2 * (20 + 30 + 24)

    def test_bytes_moved_binary_elementwise(self):
        op = elementwise_op(OpKind.ADD, (10,))
        assert op.bytes_moved(2) == 2 * 30

    def test_figure3_categories(self):
        assert matmul_op(1, 1, 1).figure3_category == "Matrix Multiply"
        assert bmm_op(1, 1, 1, 1).figure3_category == "Batched Mat Mul"
        assert elementwise_op(OpKind.SOFTMAX, (2,)).figure3_category \
            == "Softmax"
        assert elementwise_op(OpKind.LAYERNORM, (2,)).figure3_category \
            == "Other"


class TestTraceSpec:
    def test_rejects_overlong_sequence(self):
        config = protein_bert_tiny(max_position=64)
        with pytest.raises(ValueError):
            TraceSpec(config=config, seq_len=100)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            TraceSpec(config=protein_bert_tiny(), batch=0)


class TestSymbolicTrace:
    def test_matches_executed_trace_without_mask(self):
        config = protein_bert_tiny()
        model = ProteinBert(config, seed=1)
        recorded = []
        ids = np.random.default_rng(0).integers(
            0, config.vocab_size, size=(2, 16))
        model.forward(ids, recorder=recorded)
        symbolic = trace_model(TraceSpec(config, batch=2, seq_len=16))
        assert [(op.kind, op.shape) for op in recorded] \
            == [(op.kind, op.shape) for op in symbolic]

    def test_matches_executed_trace_with_mask(self):
        config = protein_bert_tiny()
        model = ProteinBert(config, seed=1)
        recorded = []
        ids = np.random.default_rng(0).integers(
            0, config.vocab_size, size=(3, 12))
        mask = np.ones((3, 12), dtype=np.int64)
        model.forward(ids, mask, recorder=recorded)
        symbolic = trace_model(
            TraceSpec(config, batch=3, seq_len=12, with_mask=True))
        assert [(op.kind, op.shape) for op in recorded] \
            == [(op.kind, op.shape) for op in symbolic]

    def test_per_layer_op_counts(self):
        config = protein_bert_base()
        layer_ops = trace_layer(TraceSpec(config, batch=1, seq_len=32), 0)
        counts = Counter(op.kind for op in layer_ops)
        assert counts[OpKind.MATMUL] == 6        # q,k,v,attn-out,ffn x2
        assert counts[OpKind.BMM] == 2           # scores + context
        assert counts[OpKind.SOFTMAX] == 1
        assert counts[OpKind.GELU] == 1
        assert counts[OpKind.LAYERNORM] == 2

    def test_paper_matmul_shapes_at_batch_128(self):
        # Section 3.1: attention/output sublayers use m = 65536 (batch 128
        # x seq 512), k = 768/3072, n = 768.
        config = protein_bert_base()
        ops = trace_layer(TraceSpec(config, batch=128, seq_len=512), 0)
        shapes = {op.shape for op in ops if op.kind is OpKind.MATMUL}
        assert (65536, 768, 768) in shapes
        assert (65536, 3072, 768) in shapes
        assert (65536, 768, 3072) in shapes

    def test_paper_bmm_shapes(self):
        # Attention dot products: k = 64 per head.
        config = protein_bert_base()
        ops = trace_layer(TraceSpec(config, batch=2, seq_len=512), 0)
        bmms = [op.shape for op in ops if op.kind is OpKind.BMM]
        assert (2 * 12, 512, 64, 512) in bmms
        assert (2 * 12, 512, 512, 64) in bmms

    def test_flops_scale_linearly_with_batch(self):
        config = protein_bert_tiny()
        one = sum(op.flops for op in trace_model(
            TraceSpec(config, batch=1, seq_len=32)))
        four = sum(op.flops for op in trace_model(
            TraceSpec(config, batch=4, seq_len=32)))
        assert four == pytest.approx(4 * one, rel=1e-9)

    def test_attention_flops_scale_quadratically_with_length(self):
        config = protein_bert_tiny(max_position=512)
        def bmm_flops(seq):
            ops = trace_model(TraceSpec(config, batch=1, seq_len=seq))
            return sum(op.flops for op in ops if op.kind is OpKind.BMM)
        assert bmm_flops(128) == pytest.approx(4 * bmm_flops(64), rel=1e-9)
