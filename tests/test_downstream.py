"""Tests for the downstream task substrate (Figure 2b)."""

import pytest

from repro.downstream import (
    TASK_REGISTRY,
    default_task_extractor,
    evaluate_task,
    format_results,
    make_task_dataset,
    stability_label,
)
from repro.downstream.tasks import make_fluorescence_label
from repro.model import ProteinBert, protein_bert_tiny


class TestLabels:
    def test_fluorescence_penalizes_core_charge(self):
        wild_type = "A" * 50 + "IIIIIIIIIII" + "A" * 50
        label = make_fluorescence_label(wild_type)
        charged = wild_type[:55] + "K" + wild_type[56:]
        assert label(charged) < label(wild_type)

    def test_fluorescence_fixed_core_site(self):
        wild_type = "A" * 50 + "IIIIIIIIIII" + "A" * 50
        label = make_fluorescence_label(wild_type)
        # A mutation far from the core leaves the label unchanged.
        distant = "R" + wild_type[1:]
        assert label(distant) == pytest.approx(label(wild_type))

    def test_stability_prefers_hydrophobic(self):
        hydrophobic = "ILVILVILVILVILV"
        charged = "KDEKDEKDEKDEKDE"
        assert stability_label(hydrophobic) > stability_label(charged)


class TestTaskDatasets:
    def test_registry_tasks(self):
        assert set(TASK_REGISTRY) == {"fluorescence", "stability"}

    @pytest.mark.parametrize("name", sorted(TASK_REGISTRY))
    def test_dataset_shapes(self, name):
        dataset = make_task_dataset(name, num_train=20, num_test=10)
        assert len(dataset.train) == 20
        assert len(dataset.test) == 10
        _, length, _ = TASK_REGISTRY[name]
        assert all(len(example.sequence) == length
                   for example in dataset.train)

    def test_deterministic(self):
        a = make_task_dataset("stability", seed=3)
        b = make_task_dataset("stability", seed=3)
        assert a.train == b.train

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            make_task_dataset("folding")

    def test_labels_vary(self):
        dataset = make_task_dataset("fluorescence", num_train=30,
                                    num_test=5)
        assert dataset.train_labels.std() > 0

    def test_label_arrays(self):
        dataset = make_task_dataset("stability", num_train=6, num_test=3)
        assert dataset.train_labels.shape == (6,)
        assert dataset.test_labels.shape == (3,)
        assert len(dataset.train_sequences) == 6


class TestEvaluation:
    def test_pipeline_runs_with_tiny_extractor(self):
        dataset = make_task_dataset("stability", num_train=24,
                                    num_test=12)
        model = ProteinBert(protein_bert_tiny(max_position=128), seed=0)
        result = evaluate_task(dataset, model=model)
        assert result.task == "stability"
        assert -1.0 <= result.rank_correlation <= 1.0

    def test_stability_transfers_well(self):
        # The full default extractor achieves strong transfer on the
        # compositional stability task.
        dataset = make_task_dataset("stability")
        result = evaluate_task(dataset, model=default_task_extractor())
        assert result.rank_correlation > 0.7

    def test_format_results(self):
        from repro.downstream import TaskResult
        results = {"stability": TaskResult(
            task="stability", rank_correlation=0.9,
            pearson_correlation=0.92, num_train=96, num_test=48)}
        text = format_results(results)
        assert "stability" in text and "0.9" in text
