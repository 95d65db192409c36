"""Tests for lowering dataflows to host-accelerator commands."""

import pytest

from repro.arch.isa import Opcode, lower_dataflow
from repro.dataflow import ArrayType, DataflowKind, build_graph_for
from repro.model import protein_bert_tiny


def dataflows_of(kind):
    graph = build_graph_for(protein_bert_tiny(), batch=1, seq_len=16)
    return [df for _, df in graph.dataflows if df.kind is kind]


class TestLowering:
    def test_dataflow1_sequence(self):
        df1 = dataflows_of(DataflowKind.DATAFLOW_1)[0]
        commands = lower_dataflow(df1)
        opcodes = [c.opcode for c in commands]
        assert opcodes[0] == Opcode.MATMUL
        assert opcodes[-1] == Opcode.WRITEBACK
        assert Opcode.MULADD in opcodes
        assert all(c.array_type is ArrayType.M for c in commands)

    def test_dataflow2_includes_gelu(self):
        df2 = dataflows_of(DataflowKind.DATAFLOW_2)[0]
        opcodes = [c.opcode for c in lower_dataflow(df2)]
        assert Opcode.GELU in opcodes

    def test_dataflow3_has_mid_writeback(self):
        df3 = dataflows_of(DataflowKind.DATAFLOW_3)[0]
        opcodes = [c.opcode for c in lower_dataflow(df3)]
        # Exp results drain to the host (softmax finish) before the second
        # MatMul: WRITEBACK appears twice.
        assert opcodes.count(Opcode.WRITEBACK) == 2
        assert opcodes.index(Opcode.EXP) \
            < opcodes.index(Opcode.WRITEBACK) \
            < opcodes.index(Opcode.MATMUL, opcodes.index(Opcode.EXP))

    def test_matdiv_carries_divisor(self):
        df3 = dataflows_of(DataflowKind.DATAFLOW_3)[0]
        commands = lower_dataflow(df3)
        matdiv = next(c for c in commands if c.opcode is Opcode.MATDIV)
        # The attention scale divides by sqrt(head_dim) = 4 for the tiny
        # config (head_dim 16).
        assert matdiv.alpha == pytest.approx(4.0)
