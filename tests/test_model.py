"""Tests for the NumPy Protein BERT model: layers, attention, encoder."""

import numpy as np
import pytest

from repro.model import (
    ATTENTION_MASK_VALUE,
    BertConfig,
    Embedding,
    LayerNorm,
    Linear,
    ProteinBert,
    gelu,
    initialize_weights,
    layer_norm,
    load_weights,
    protein_bert_base,
    protein_bert_tiny,
    save_weights,
    softmax,
    validate_weights,
)
from repro.model.weights import pretrained_like_weights
from tests.oracles.kernels import gelu_exact


class TestActivations:
    def test_gelu_at_zero(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_gelu_large_positive_is_identity(self):
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)

    def test_gelu_large_negative_is_zero(self):
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-4)

    def test_gelu_tanh_matches_exact(self):
        xs = np.linspace(-5, 5, 101)
        assert np.allclose(gelu(xs), gelu_exact(xs), atol=2e-3)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 7)).astype(np.float32)
        assert np.allclose(softmax(x).sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-6)

    def test_softmax_numerically_stable_for_large_inputs(self):
        x = np.array([[1e4, 1e4 + 1.0]], dtype=np.float32)
        result = softmax(x)
        assert np.isfinite(result).all()

    def test_layer_norm_zero_mean_unit_var(self):
        x = np.random.default_rng(1).normal(3.0, 5.0, size=(10, 16))
        gamma = np.ones(16, dtype=np.float32)
        beta = np.zeros(16, dtype=np.float32)
        normalized = layer_norm(x, gamma, beta)
        assert np.allclose(normalized.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(normalized.std(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_affine(self):
        x = np.random.default_rng(2).normal(size=(4, 8)).astype(np.float32)
        gamma = np.full(8, 2.0, dtype=np.float32)
        beta = np.full(8, 1.0, dtype=np.float32)
        normalized = layer_norm(x, gamma, beta)
        assert np.allclose(normalized.mean(axis=-1), 1.0, atol=1e-5)


class TestBertConfig:
    def test_defaults_are_bert_base(self):
        config = protein_bert_base()
        assert config.hidden_size == 768
        assert config.num_layers == 12
        assert config.num_heads == 12
        assert config.intermediate_size == 3072
        assert config.head_dim == 64

    def test_vocab_is_protein_alphabet(self):
        assert protein_bert_base().vocab_size == 30

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            BertConfig(hidden_size=100, num_heads=12)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            BertConfig(num_layers=0)

    def test_parameter_count_scale(self):
        # BERT-base without the word-piece vocab: ~85M encoder params
        # plus protein/position embeddings.
        count = protein_bert_base().parameter_count
        assert 85_000_000 < count < 95_000_000


class TestLayers:
    def test_linear_matches_numpy(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(8, 4)).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        x = rng.normal(size=(3, 8)).astype(np.float32)
        layer = Linear(weight, bias)
        assert np.allclose(layer.forward(x), x @ weight + bias, atol=1e-6)

    def test_linear_shape_validation(self):
        weight = np.zeros((8, 4), dtype=np.float32)
        layer = Linear(weight)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 5), dtype=np.float32))

    def test_linear_bias_shape_validation(self):
        with pytest.raises(ValueError):
            Linear(np.zeros((8, 4)), bias=np.zeros(5))

    def test_embedding_lookup(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        layer = Embedding(table)
        out = layer.forward(np.array([[0, 3], [1, 1]]))
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out[0, 1], table[3])

    def test_embedding_out_of_range(self):
        layer = Embedding(np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            layer.forward(np.array([[4]]))

    def test_layernorm_module_matches_function(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 8)).astype(np.float32)
        gamma = rng.normal(size=8).astype(np.float32)
        beta = rng.normal(size=8).astype(np.float32)
        module = LayerNorm(gamma, beta)
        assert np.allclose(module.forward(x), layer_norm(x, gamma, beta))


class TestProteinBert:
    @pytest.fixture(scope="class")
    def tiny(self):
        config = protein_bert_tiny()
        return config, ProteinBert(config, seed=0)

    def test_forward_shape(self, tiny):
        config, model = tiny
        ids = np.zeros((2, 10), dtype=np.int64)
        out = model.forward(ids)
        assert out.shape == (2, 10, config.hidden_size)

    def test_forward_deterministic(self, tiny):
        config, model = tiny
        ids = np.full((1, 8), 5, dtype=np.int64)
        assert np.array_equal(model.forward(ids), model.forward(ids))

    def test_sequence_too_long_rejected(self, tiny):
        config, model = tiny
        ids = np.zeros((1, config.max_position + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            model.forward(ids)

    def test_mask_changes_output(self, tiny):
        config, model = tiny
        rng = np.random.default_rng(0)
        ids = rng.integers(5, 25, size=(1, 8))
        mask = np.ones((1, 8), dtype=np.int64)
        masked = mask.copy()
        masked[0, -3:] = 0
        assert not np.allclose(model.forward(ids, mask),
                               model.forward(ids, masked))

    def test_padding_does_not_change_real_token_features(self, tiny):
        config, model = tiny
        rng = np.random.default_rng(1)
        ids = rng.integers(5, 25, size=(1, 6))
        mask = np.ones((1, 6), dtype=np.int64)
        out_short = model.forward(ids, mask)
        padded = np.concatenate(
            [ids, np.zeros((1, 4), dtype=np.int64)], axis=1)
        padded_mask = np.concatenate(
            [mask, np.zeros((1, 4), dtype=np.int64)], axis=1)
        out_padded = model.forward(padded, padded_mask)
        assert np.allclose(out_short[0], out_padded[0, :6], atol=1e-4)

    def test_features_mean_pool_with_mask(self, tiny):
        config, model = tiny
        ids = np.full((1, 6), 7, dtype=np.int64)
        mask = np.array([[1, 1, 1, 0, 0, 0]])
        features = model.features(ids, mask)
        hidden = model.forward(ids, mask)
        assert np.allclose(features[0], hidden[0, :3].mean(axis=0),
                           atol=1e-6)

    def test_attention_mask_value_is_large_negative(self):
        assert ATTENTION_MASK_VALUE <= -1e8


class TestWeights:
    def test_initialization_deterministic(self):
        config = protein_bert_tiny()
        a = initialize_weights(config, seed=5)
        b = initialize_weights(config, seed=5)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_initialization_covers_all_layers(self):
        config = protein_bert_tiny(num_layers=3)
        weights = initialize_weights(config)
        assert "layer.2.output.weight" in weights
        assert "layer.3.output.weight" not in weights

    def test_truncated_normal_bounds(self):
        weights = initialize_weights(protein_bert_tiny(), seed=0)
        w = weights["layer.0.attention.query.weight"]
        assert np.abs(w).max() <= 0.04 + 1e-6

    def test_save_load_roundtrip(self, tmp_path):
        config = protein_bert_tiny()
        weights = initialize_weights(config, seed=1)
        path = tmp_path / "weights.npz"
        save_weights(weights, path)
        loaded = load_weights(path)
        assert set(loaded) == set(weights)
        assert all(np.array_equal(loaded[k], weights[k]) for k in weights)

    def test_validate_rejects_missing(self):
        config = protein_bert_tiny()
        weights = initialize_weights(config)
        del weights["layer.0.output.bias"]
        with pytest.raises(ValueError):
            validate_weights(weights, config)

    def test_validate_rejects_bad_shape(self):
        config = protein_bert_tiny()
        weights = initialize_weights(config)
        weights["layer.0.output.bias"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError):
            validate_weights(weights, config)

    def test_pretrained_like_embeds_descriptors(self):
        config = protein_bert_tiny()
        weights = pretrained_like_weights(config, seed=0)
        table = weights["embeddings.token"]
        from repro.proteins import DEFAULT_VOCABULARY, HYDROPATHY
        ile = DEFAULT_VOCABULARY.index("I")
        arg = DEFAULT_VOCABULARY.index("R")
        # Hydropathy dim: isoleucine strongly positive, arginine negative.
        assert table[ile, 0] > 0 > table[arg, 0]
        assert table[ile, 0] == pytest.approx(
            0.3 * HYDROPATHY["I"] / 4.5, rel=1e-5)

    def test_pretrained_like_keeps_shapes_valid(self):
        config = protein_bert_tiny()
        validate_weights(pretrained_like_weights(config), config)
