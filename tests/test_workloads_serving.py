"""Tests for workload generators, campaign serving, and numerics study."""

import numpy as np
import pytest

from repro.experiments import numerics
from repro.proteins import (
    FAB_LENGTH,
    Workload,
    WorkloadItem,
    bucket_batches,
    screening_campaign,
    uniprot_like_workload,
)
from repro.model import protein_bert_tiny
from repro.system import CampaignSimulator, format_campaign

FAST_CONFIG = protein_bert_tiny(num_layers=2, hidden_size=128, num_heads=4,
                                intermediate_size=512, max_position=2048)


class TestWorkloadGenerators:
    def test_uniprot_like_lengths(self):
        workload = uniprot_like_workload(count=200, seed=0)
        assert len(workload) == 200
        # Median near 300 residues, heavy right tail.
        assert 200 < np.median(workload.lengths) < 450
        assert workload.max_length > 600

    def test_bounds_respected(self):
        workload = uniprot_like_workload(count=100, seed=1,
                                         min_length=100, max_length=500)
        assert workload.lengths.min() >= 100
        assert workload.max_length <= 500

    def test_deterministic(self):
        a = uniprot_like_workload(count=20, seed=2)
        b = uniprot_like_workload(count=20, seed=2)
        assert a.items == b.items

    def test_screening_campaign_fixed_length(self):
        campaign = screening_campaign(library_size=30)
        assert all(item.length == FAB_LENGTH for item in campaign.items)
        # All variants differ from each other (point-mutant library).
        assert len({item.sequence for item in campaign.items}) > 25

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            uniprot_like_workload(count=0)


class TestBucketBatches:
    def test_covers_workload(self):
        workload = uniprot_like_workload(count=100, seed=5)
        batches = bucket_batches(workload, (128, 256, 512, 1024, 2048),
                                 max_batch=16)
        assert sum(size for _, size in batches) == 100
        assert all(size <= 16 for _, size in batches)

    def test_padding_edge_covers_item(self):
        workload = Workload(name="t", items=(WorkloadItem("A" * 100, 100),))
        batches = bucket_batches(workload, (64, 128))
        assert batches == [(128, 1)]

    def test_uncovered_workload_rejected(self):
        workload = Workload(name="t", items=(WorkloadItem("A" * 300, 300),))
        with pytest.raises(ValueError):
            bucket_batches(workload, (64, 128))

    def test_invalid_max_batch(self):
        workload = uniprot_like_workload(count=4, seed=6)
        with pytest.raises(ValueError):
            bucket_batches(workload, (2048,), max_batch=0)


class TestCampaignSimulator:
    @pytest.fixture(scope="class")
    def simulator(self):
        return CampaignSimulator(model_config=FAST_CONFIG, max_batch=16)

    @pytest.fixture(scope="class")
    def workload(self):
        return uniprot_like_workload(count=24, seed=7, max_length=1024)

    def test_prose_report(self, simulator, workload):
        report = simulator.run_on_prose(workload)
        assert report.sequences == 24
        assert report.total_seconds > 0
        assert 0.0 <= report.padding_waste < 0.8

    def test_baseline_report(self, simulator, workload):
        report = simulator.run_on_baseline(workload)
        assert report.platform == "A100"
        assert report.total_energy_joules == pytest.approx(
            report.total_seconds * 395.0)

    def test_prose_wins_time_and_energy(self, simulator, workload):
        prose = simulator.run_on_prose(workload)
        gpu = simulator.run_on_baseline(workload)
        assert prose.total_seconds < gpu.total_seconds
        assert prose.total_energy_joules < gpu.total_energy_joules / 5

    def test_padding_identical_across_platforms(self, simulator, workload):
        prose = simulator.run_on_prose(workload)
        gpu = simulator.run_on_baseline(workload)
        assert prose.padded_tokens == gpu.padded_tokens

    def test_format_renders(self, simulator, workload):
        text = format_campaign([simulator.run_on_prose(workload)])
        assert "ProSE BestPerf" in text


class TestNumericsStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return numerics.run(num_train=20, num_test=10)

    def test_fidelity(self, result):
        assert result.output_correlation > 0.999
        assert result.output_max_error < 0.2

    def test_downstream_conclusion_preserved(self, result):
        assert abs(result.accelerated_rank_correlation
                   - result.reference_rank_correlation) < 0.15
        assert result.accuracy_preserved

    def test_format(self, result):
        text = numerics.format_result(result)
        assert "accuracy preserved" in text
