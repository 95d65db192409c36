"""Tests for the design-space exploration (Table 3, Figures 16-17)."""

import pytest

from repro.dse import (
    DEFAULT_PE_BUDGET,
    DesignSpaceExplorer,
    Mix,
    argmin,
    enumerate_configs,
    enumerate_mixes,
    mix_to_config,
    pareto_front,
    space_size,
)
from repro.dse.space import DEFAULT_PARTITIONS
from repro.model import protein_bert_tiny

FAST_CONFIG = protein_bert_tiny(num_layers=2, hidden_size=128, num_heads=4,
                                intermediate_size=512, max_position=256)


class TestSpace:
    def test_all_mixes_hit_budget_exactly(self):
        for mix in enumerate_mixes():
            config = mix_to_config(mix, DEFAULT_PARTITIONS[0])
            assert config.total_pes == DEFAULT_PE_BUDGET

    def test_counts_within_table3_limits(self):
        for mix in enumerate_mixes():
            assert 1 <= mix.m_count <= 3
            cap_g = 15 if mix.g_size == 32 else 31
            cap_e = 15 if mix.e_size == 32 else 31
            assert 1 <= mix.g_count <= cap_g
            assert 1 <= mix.e_count <= cap_e

    def test_space_size_near_paper(self):
        # Paper explored 238 configurations; our enumeration yields 232.
        assert 200 <= space_size() <= 280

    def test_paper_best_perf_mix_in_space(self):
        assert Mix(2, 16, 10, 16, 22) in enumerate_mixes()

    def test_paper_most_efficient_mix_in_space(self):
        assert Mix(2, 32, 3, 16, 20) in enumerate_mixes()

    def test_other_budgets_enumerate(self):
        for budget in (8192, 20480, 24576):
            mixes = enumerate_mixes(budget)
            assert mixes
            assert all(mix_to_config(m, DEFAULT_PARTITIONS[0]).total_pes
                       == budget for m in mixes)

    def test_mix_to_config_materializes(self):
        mix = Mix(2, 16, 10, 16, 22)
        config = mix_to_config(mix, DEFAULT_PARTITIONS[0])
        assert config.total_pes == DEFAULT_PE_BUDGET

    def test_enumerate_configs_count(self):
        configs = list(enumerate_configs())
        assert len(configs) == space_size()


class TestPareto:
    def test_front_contains_extremes(self):
        points = [(1.0, 5.0), (2.0, 2.0), (5.0, 1.0), (4.0, 4.0)]
        front = pareto_front(points, lambda p: p)
        assert (1.0, 5.0) in front
        assert (5.0, 1.0) in front
        assert (4.0, 4.0) not in front

    def test_dominated_point_removed(self):
        points = [(1.0, 1.0), (2.0, 2.0)]
        assert pareto_front(points, lambda p: p) == [(1.0, 1.0)]

    def test_argmin(self):
        assert argmin([3, 1, 2], key=lambda x: x) == 1
        with pytest.raises(ValueError):
            argmin([], key=lambda x: x)


class TestExplorer:
    @pytest.fixture(scope="class")
    def sweep(self):
        explorer = DesignSpaceExplorer(model_config=FAST_CONFIG, batch=8,
                                       seq_len=128)
        return explorer.sweep(limit=16)

    def test_points_evaluated(self, sweep):
        assert len(sweep.points) == 16

    def test_best_perf_is_fastest(self, sweep):
        fastest = min(p.normalized_runtime for p in sweep.points)
        assert sweep.best_perf.normalized_runtime == fastest

    def test_pareto_picks_not_dominated(self, sweep):
        for pick in (sweep.most_power_efficient,
                     sweep.most_area_efficient):
            for other in sweep.points:
                dominates = (other.normalized_runtime
                             <= pick.normalized_runtime
                             and other.power_watts <= pick.power_watts
                             and (other.normalized_runtime
                                  < pick.normalized_runtime
                                  or other.power_watts < pick.power_watts))
                if pick is sweep.most_power_efficient:
                    assert not dominates or other is pick

    def test_points_have_physical_attributes(self, sweep):
        for point in sweep.points:
            assert point.power_watts > 0
            assert point.area_mm2 > 0
            assert point.normalized_runtime > 0

    def test_perf_per_watt_definition(self, sweep):
        point = sweep.points[0]
        assert point.perf_per_watt == pytest.approx(
            1.0 / (point.normalized_runtime * point.power_watts))

    def test_empty_space_rejected(self):
        explorer = DesignSpaceExplorer(model_config=FAST_CONFIG, batch=4,
                                       seq_len=64)
        with pytest.raises(ValueError):
            explorer.sweep(limit=0)
