"""Tests for the extension and sensitivity experiment modules."""

import pytest

from repro.experiments import extensions, sensitivity
from repro.profiling import footprint_sweep
from repro.model import protein_bert_tiny

FAST_CONFIG = protein_bert_tiny(num_layers=2, hidden_size=128, num_heads=4,
                                intermediate_size=512, max_position=1024)


class TestModelZooScaling:
    def test_throughput_inverse_to_size(self):
        points = extensions.model_zoo_scaling(
            models=("protein-bert-compact", "tape-bert"), batch=16,
            seq_len=256)
        by_model = {p.model: p for p in points}
        assert by_model["protein-bert-compact"].throughput \
            > by_model["tape-bert"].throughput

    def test_storage_constant_across_models(self):
        points = extensions.model_zoo_scaling(
            models=("protein-bert-compact", "tape-bert"), batch=8,
            seq_len=128)
        storages = {p.prose_storage_bytes for p in points}
        assert len(storages) == 1


class TestSeq2SeqStudy:
    def test_overhead_bounded(self):
        points = extensions.seq2seq_study(config=FAST_CONFIG, batch=8,
                                          shapes=((128, 64),))
        assert len(points) == 1
        assert 1.0 < points[0].decoder_overhead < 4.0

    def test_format_renders(self):
        zoo = extensions.model_zoo_scaling(
            models=("protein-bert-compact",), batch=8, seq_len=128)
        seq2seq = extensions.seq2seq_study(config=FAST_CONFIG, batch=4,
                                           shapes=((64, 32),))
        from repro.downstream import TaskResult
        tasks = {"stability": TaskResult(
            task="stability", rank_correlation=0.9,
            pearson_correlation=0.9, num_train=96, num_test=48)}
        footprints = footprint_sweep(lengths=(128, 512))
        text = extensions.format_result((zoo, seq2seq, tasks, footprints))
        assert "model-zoo scalability" in text
        assert "encoder-decoder" in text
        assert "max A100 batch" in text


class TestSensitivityExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return sensitivity.run(batch=32, seq_len=256)

    def test_all_knobs_present(self, result):
        assert {p.knob for p in result.points} == {
            "host throughput", "contention", "lane partition", "batch size"}

    def test_conclusion_robust(self, result):
        low, high = result.global_range
        assert low > 1.5          # ProSE clearly ahead everywhere

    def test_host_insensitive(self, result):
        host = [p.speedup_vs_a100 for p in result.points
                if p.knob == "host throughput"]
        assert max(host) / min(host) < 1.25

    def test_format_renders(self, result):
        text = sensitivity.format_result(result)
        assert "speedup range" in text
