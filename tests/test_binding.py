"""Tests for the binding-affinity study (Section 2.2)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.binding import (
    FeatureExtractor,
    PcaRidgeModel,
    RidgeRegression,
    default_extractor_config,
    pearson,
    rankdata,
    run_binding_study,
    spearman,
)
from repro.model import ProteinBert, protein_bert_tiny
from repro.proteins import FAB_LENGTH, BindingEnergyModel, make_binding_dataset
from tests.oracles.features import padded_extract


class TestMetrics:
    def test_rankdata_matches_scipy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=50)
        assert np.allclose(rankdata(values),
                           scipy_stats.rankdata(values))

    def test_rankdata_handles_ties(self):
        values = [1.0, 2.0, 2.0, 3.0]
        assert np.allclose(rankdata(values), [1.0, 2.5, 2.5, 4.0])

    def test_spearman_matches_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        y = 0.5 * x + rng.normal(size=40)
        ours = spearman(x, y)
        reference = scipy_stats.spearmanr(x, y).statistic
        assert ours == pytest.approx(reference, abs=1e-12)

    def test_spearman_perfect_monotone(self):
        x = np.arange(10.0)
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_spearman_requires_two_points(self):
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])

    def test_pearson_matches_numpy(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 30))
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_constant_input_returns_zero(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0


class TestRidgeRegression:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 5))
        weights = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = x @ weights + 4.0
        model = RidgeRegression(alpha=1e-6).fit(x, y)
        assert np.allclose(model.predict(x), y, atol=1e-3)

    def test_dual_form_when_wide(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 100))
        y = rng.normal(size=20)
        model = RidgeRegression(alpha=1.0).fit(x, y)
        assert model.predict(x).shape == (20,)

    def test_primal_dual_agree(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 30))
        y = rng.normal(size=30)
        # Same data through both solve paths (trick: transpose shape).
        primal = RidgeRegression(alpha=2.0).fit(x, y).predict(x)
        wide = RidgeRegression(alpha=2.0).fit(
            np.hstack([x, np.zeros((30, 10))]), y).predict(
            np.hstack([x, np.zeros((30, 10))]))
        assert np.allclose(primal, wide, atol=1e-6)

    def test_regularization_shrinks(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 10))
        y = rng.normal(size=40)
        loose = RidgeRegression(alpha=1e-6).fit(x, y)
        tight = RidgeRegression(alpha=1e6).fit(x, y)
        spread_loose = np.std(loose.predict(x))
        spread_tight = np.std(tight.predict(x))
        assert spread_tight < spread_loose

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.zeros((2, 3)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.zeros((4, 3)), np.zeros(5))


class TestPcaRidge:
    def test_reduces_before_fit(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 50))
        y = x[:, 0] * 2.0
        model = PcaRidgeModel(components=3, alpha=0.1).fit(x, y)
        assert model._basis.shape == (3, 50)

    def test_component_bounds_enforced(self):
        with pytest.raises(ValueError):
            PcaRidgeModel(components=100).fit(np.zeros((10, 5)),
                                              np.zeros(10))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PcaRidgeModel().predict(np.zeros((2, 3)))

    def test_captures_dominant_direction(self):
        rng = np.random.default_rng(8)
        latent = rng.normal(size=(100, 1))
        x = latent @ rng.normal(size=(1, 20)) \
            + 0.01 * rng.normal(size=(100, 20))
        y = latent[:, 0]
        model = PcaRidgeModel(components=1, alpha=0.1).fit(x, y)
        assert pearson(model.predict(x), y) > 0.99


class TestDataset:
    def test_paper_split_sizes(self):
        dataset = make_binding_dataset()
        assert len(dataset.train) == 39
        assert len(dataset.test) == 35

    def test_fab_length(self):
        dataset = make_binding_dataset()
        assert all(len(v.sequence) == FAB_LENGTH
                   for v in dataset.train + dataset.test)

    def test_deterministic(self):
        a = make_binding_dataset(seed=5)
        b = make_binding_dataset(seed=5)
        assert a.train == b.train and a.test == b.test

    def test_energy_model_deterministic(self):
        dataset = make_binding_dataset()
        model = BindingEnergyModel(dataset.paratope, seed=2024)
        sequence = dataset.train[0].sequence
        assert model.energy(sequence) == model.energy(sequence)

    def test_mutations_confined_to_cdr(self):
        dataset = make_binding_dataset(seed=3)
        cdr = {p + o for p in dataset.paratope for o in (-1, 0, 1)}
        base = None
        # All train variants agree outside the CDR region.
        for variant in dataset.train:
            if base is None:
                base = variant.sequence
                continue
            for position, (a, b) in enumerate(zip(base, variant.sequence)):
                if a != b:
                    assert position in cdr

    def test_energy_model_requires_positions(self):
        with pytest.raises(ValueError):
            BindingEnergyModel([])


class TestFeatureExtractor:
    def test_feature_shape(self):
        config = protein_bert_tiny()
        extractor = FeatureExtractor(ProteinBert(config, seed=0))
        features = extractor.extract(["MEYQ", "ACDEFG"])
        assert features.shape == (2, config.hidden_size)

    def test_batching_invariant(self):
        config = protein_bert_tiny()
        model = ProteinBert(config, seed=0)
        sequences = ["MEYQ", "ACDEFG", "WWWW", "KLMNP"]
        one = FeatureExtractor(model, batch_size=1).extract(sequences)
        four = FeatureExtractor(model, batch_size=4).extract(sequences)
        assert np.allclose(one, four, atol=1e-4)

    def test_empty_input_rejected(self):
        extractor = FeatureExtractor(ProteinBert(protein_bert_tiny()))
        with pytest.raises(ValueError):
            extractor.extract([])


class TestLengthGroupedExtraction:
    """The extractor batches only sequences of equal token length; the
    pad-to-longest loop it replaced (``tests/oracles/features.py``) is
    the reference."""

    @pytest.fixture(scope="class")
    def model(self):
        return ProteinBert(protein_bert_tiny(max_position=512), seed=3)

    @staticmethod
    def assert_same_bytes(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 2, 8])
    def test_equal_lengths_byte_identical(self, model, batch_size):
        sequences = ["MEYQKLVIVA", "ACDEFGHIKL", "WWWWWWWWWW",
                     "KLMNPQRSTV", "YYYYAAAACC"]
        extractor = FeatureExtractor(model, batch_size=batch_size)
        self.assert_same_bytes(extractor.extract(sequences),
                               padded_extract(extractor, sequences))

    def test_binding_training_sequences_byte_identical(self, model):
        sequences = make_binding_dataset(seed=2022).train_sequences[:16]
        assert {len(sequence) for sequence in sequences} == {FAB_LENGTH}
        extractor = FeatureExtractor(model)
        self.assert_same_bytes(extractor.extract(sequences),
                               padded_extract(extractor, sequences))

    def test_mixed_lengths_keep_order(self, model):
        # Lengths 6, 3, 9, 6, 3, 12, 6: three length groups, one of them
        # split into two chunks, interleaved in the input.
        sequences = ["MEYQKL", "ACD", "WWWWWWWWW", "KLMNPQ", "GHI",
                     "MEYQKLVIVAST", "RSTVWY"]
        extractor = FeatureExtractor(model, batch_size=2)
        features = extractor.extract(sequences)
        assert features.shape == (len(sequences), model.config.hidden_size)
        for row, sequence in zip(features, sequences):
            alone = extractor.extract([sequence])[0]
            assert np.array_equal(row, alone)
        padded = padded_extract(extractor, sequences)
        assert np.max(np.abs(features - padded)) <= 1e-6


class TestBindingStudy:
    def test_smoke_with_tiny_extractor(self):
        # Full-accuracy runs live in the benchmark; here a tiny extractor
        # checks the pipeline end to end.
        model = ProteinBert(protein_bert_tiny(max_position=512), seed=0)
        result = run_binding_study(model=model)
        assert result.num_train == 39 and result.num_test == 35
        assert -1.0 <= result.rank_correlation <= 1.0
        assert -1.0 <= result.train_rank_correlation <= 1.0

    def test_default_extractor_config_shape(self):
        config = default_extractor_config()
        assert config.hidden_size == 256
        assert config.max_position >= FAB_LENGTH + 2
