"""Tests for ProSE hardware configurations (Figure 9, Table 4)."""

import pytest

from repro.arch import (
    ArrayGroup,
    HardwareConfig,
    best_perf,
    best_perf_plus,
    homogeneous,
    homogeneous_plus,
    most_efficient,
    most_efficient_plus,
    nvlink,
    table4_configs,
)
from repro.dataflow import ArrayType


class TestArrayGroup:
    def test_pe_count(self):
        assert ArrayGroup(ArrayType.M, 64, 2).pes == 8192

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayGroup(ArrayType.M, 0, 2)
        with pytest.raises(ValueError):
            ArrayGroup(ArrayType.M, 64, 0)

    def test_label(self):
        assert ArrayGroup(ArrayType.G, 32, 3).label == "3x 32x32 G"


class TestHardwareConfig:
    def test_all_types_required(self):
        with pytest.raises(ValueError):
            HardwareConfig(name="bad", groups=(
                ArrayGroup(ArrayType.M, 64, 2),
                ArrayGroup(ArrayType.G, 16, 4)))

    def test_total_pes(self):
        assert best_perf().total_pes == 16384

    def test_type_bandwidth_partition(self):
        config = best_perf()
        total = sum(config.type_bandwidth(t) for t in ArrayType)
        assert total == pytest.approx(config.link.total_bandwidth)

    def test_with_link_preserves_everything_else(self):
        config = best_perf().with_link(nvlink(3, 0.8))
        assert config.total_pes == 16384
        assert config.link.total_bandwidth == pytest.approx(480e9)


class TestTable4Configs:
    def test_pe_budgets(self):
        # Base designs are 16K PEs, "+" designs 20K (Table 4).
        for config in (best_perf(), most_efficient(), homogeneous()):
            assert config.total_pes == 16384
        for config in (best_perf_plus(), most_efficient_plus(),
                       homogeneous_plus()):
            assert config.total_pes == 20480

    def test_best_perf_mix(self):
        config = best_perf()
        by_type = {g.array_type: g for g in config.groups}
        assert (by_type[ArrayType.M].size,
                by_type[ArrayType.M].count) == (64, 2)
        assert (by_type[ArrayType.G].size,
                by_type[ArrayType.G].count) == (16, 10)
        assert (by_type[ArrayType.E].size,
                by_type[ArrayType.E].count) == (16, 22)

    def test_most_efficient_mix(self):
        config = most_efficient()
        by_type = {g.array_type: g for g in config.groups}
        assert (by_type[ArrayType.G].size,
                by_type[ArrayType.G].count) == (32, 3)
        assert (by_type[ArrayType.E].size,
                by_type[ArrayType.E].count) == (16, 20)

    def test_homogeneous_is_pooled_unchained(self):
        for config in (homogeneous(), homogeneous_plus()):
            assert config.pooled
            assert not config.chained
            assert all(group.size == 64 for group in config.groups)

    def test_heterogeneous_are_chained(self):
        for config in (best_perf(), most_efficient(), best_perf_plus()):
            assert config.chained and not config.pooled

    def test_plus_designs_use_nvlink3(self):
        assert best_perf_plus().link.total_bandwidth \
            == pytest.approx(540e9)
        assert best_perf().link.total_bandwidth == pytest.approx(270e9)

    def test_six_configs(self):
        names = [c.name for c in table4_configs()]
        assert names == ["BestPerf", "MostEfficient", "Homogeneous",
                         "BestPerf+", "MostEfficient+", "Homogeneous+"]

    def test_default_threads_is_32(self):
        assert best_perf().threads == 32
