"""Tests for the encoder-decoder dataflow mapping and its schedule."""

import pytest

from repro.dataflow import DataflowKind, build_seq2seq_graph
from repro.model import protein_bert_base
from tests.oracles.dataflow import validate_acyclic


class TestSeq2SeqGraph:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_seq2seq_graph(protein_bert_base(), batch=2,
                                   src_len=128, tgt_len=64)

    def test_acyclic(self, graph):
        assert validate_acyclic(graph)

    def test_dataflow_mix_per_decoder_layer(self, graph):
        # Encoder contributes 5/1/1 per layer; each decoder layer adds
        # 9x DF1 (2 attention blocks x 4 projections + FFN output),
        # 1x DF2, 2x DF3.
        kinds = [df.kind for _, df in graph.dataflows]
        layers = protein_bert_base().num_layers
        assert kinds.count(DataflowKind.DATAFLOW_1) == 5 * layers + 9 * layers
        assert kinds.count(DataflowKind.DATAFLOW_2) == 2 * layers
        assert kinds.count(DataflowKind.DATAFLOW_3) == 3 * layers

    def test_causal_mask_in_self_attention_df3(self, graph):
        from repro.trace import OpKind
        self_df3 = next(df for _, df in graph.dataflows
                        if df.name.endswith("layer.0.self"))
        kinds = [op.kind for op in self_df3.ops]
        assert OpKind.ADD in kinds     # the causal-mask addition

    def test_cross_attention_reads_encoder(self, graph):
        # Cross K/V projections depend on the encoder's final node.
        names = {df.name: (index, df)
                 for index, df in graph.dataflows}
        _, cross_k = names["decoder.layer.0.cross.key"]
        encoder_final = max(index for index, node
                            in enumerate(graph.nodes)
                            if getattr(node, "name", "")
                            == "layer.11.output.layernorm")
        assert cross_k.deps == (encoder_final,)

    def test_decoder_depth_override(self):
        graph = build_seq2seq_graph(protein_bert_base(), batch=1,
                                    src_len=64, tgt_len=32,
                                    decoder_layers=2)
        decoder_df2 = [df for _, df in graph.dataflows
                       if df.kind is DataflowKind.DATAFLOW_2
                       and df.name.startswith("decoder")]
        assert len(decoder_df2) == 2

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_seq2seq_graph(protein_bert_base(), batch=0,
                                src_len=64, tgt_len=32)


class TestSeq2SeqScheduling:
    def test_schedules_on_prose(self):
        from repro.arch import best_perf
        from repro.sched import Orchestrator
        config = protein_bert_base()
        result = Orchestrator(best_perf()).run(
            config, batch=8, seq_len=128,
            graph_builder=lambda sub: build_seq2seq_graph(
                config, batch=sub, src_len=128, tgt_len=64))
        assert result.throughput > 0

    def test_decoder_costs_throughput(self):
        from repro.arch import best_perf
        from repro.sched import Orchestrator
        config = protein_bert_base()
        orchestrator = Orchestrator(best_perf())
        encoder_only = orchestrator.run(config, batch=8, seq_len=128)
        seq2seq = orchestrator.run(
            config, batch=8, seq_len=128,
            graph_builder=lambda sub: build_seq2seq_graph(
                config, batch=sub, src_len=128, tgt_len=64))
        assert seq2seq.throughput < encoder_only.throughput
