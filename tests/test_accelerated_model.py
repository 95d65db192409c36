"""Tests for functional execution of Protein BERT on simulated hardware."""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.accelerated_model import AcceleratedProteinBert
from repro.model import ProteinBert, protein_bert_tiny
from repro.proteins import ProteinTokenizer, SequenceGenerator


@pytest.fixture(scope="module")
def setup():
    config = protein_bert_tiny(num_layers=2, hidden_size=64, num_heads=4,
                               intermediate_size=128)
    model = ProteinBert(config, seed=9)
    accelerated = AcceleratedProteinBert(model, array_size=8)
    rng = np.random.default_rng(0)
    ids = rng.integers(5, 25, size=(2, 12))
    mask = np.ones((2, 12), dtype=np.int64)
    return model, accelerated, ids, mask


class TestFidelity:
    def test_output_shape_matches_reference(self, setup):
        model, accelerated, ids, mask = setup
        out = accelerated.forward(ids, mask)
        assert out.shape == model.forward(ids, mask).shape

    def test_high_correlation_with_reference(self, setup):
        _, accelerated, ids, mask = setup
        error, correlation = accelerated.fidelity(ids, mask)
        assert correlation > 0.999
        assert error < 0.2

    def test_without_mask(self, setup):
        _, accelerated, ids, _ = setup
        error, correlation = accelerated.fidelity(ids)
        assert correlation > 0.999

    def test_deterministic(self, setup):
        _, accelerated, ids, mask = setup
        first = accelerated.forward(ids, mask)
        second = accelerated.forward(ids, mask)
        assert np.array_equal(first, second)

    def test_stats_accumulate(self, setup):
        _, accelerated, ids, mask = setup
        before = accelerated.stats.mac_operations
        accelerated.forward(ids, mask)
        assert accelerated.stats.mac_operations > before

    def test_bad_input_shape_rejected(self, setup):
        _, accelerated, _, _ = setup
        with pytest.raises(ValueError):
            accelerated.forward(np.zeros(5, dtype=np.int64))

    @pytest.mark.parametrize("shape", [(2, 12), (12,), (1, 14)],
                             ids=["two-rows", "one-d", "too-long"])
    def test_wrong_mask_shape_rejected(self, setup, shape):
        # One sequence of 12 tokens: a mask for two, a 1-D mask and a
        # mask two tokens too long each fail before any array runs.
        _, accelerated, ids, _ = setup
        before = replace(accelerated.stats)
        with pytest.raises(ValueError,
                           match=r"attention_mask must be \(batch, seq\)"):
            accelerated.forward(ids[:1], np.ones(shape, dtype=np.int64))
        assert accelerated.stats == before


class TestWithRealSequences:
    def test_tokenized_proteins_flow_through(self):
        config = protein_bert_tiny(num_layers=1, hidden_size=32,
                                   num_heads=2, intermediate_size=64)
        model = ProteinBert(config, seed=2)
        accelerated = AcceleratedProteinBert(model, array_size=4)
        sequences = SequenceGenerator(seed=1).batch(2, 10)
        encoding = ProteinTokenizer().encode_batch(sequences)
        error, correlation = accelerated.fidelity(
            encoding.ids, encoding.attention_mask)
        assert correlation > 0.995
