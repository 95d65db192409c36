"""Tests for the interconnect model: NVLink rates and lane partitions."""

import pytest

from repro.arch import (
    NVLINK_LANES,
    custom_link,
    enumerate_partitions,
    infinite_link,
    make_partition,
    nvlink,
)
from repro.dataflow import ArrayType


class TestNvlink:
    def test_nvlink2_at_90_percent(self):
        link = nvlink(2, 0.9)
        assert link.total_bandwidth == pytest.approx(270e9)
        assert link.lanes == NVLINK_LANES

    def test_nvlink3_doubles_nvlink2(self):
        assert nvlink(3, 0.9).total_bandwidth \
            == pytest.approx(2 * nvlink(2, 0.9).total_bandwidth)

    def test_lane_bandwidth_is_45_gbps(self):
        assert nvlink(2, 0.9).lane_bandwidth == pytest.approx(45e9)

    def test_unknown_generation_rejected(self):
        with pytest.raises(ValueError):
            nvlink(4)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            nvlink(2, 1.5)

    def test_infinite_link(self):
        link = infinite_link()
        assert link.total_bandwidth >= 1e17

    def test_custom_link(self):
        assert custom_link(360).total_bandwidth == pytest.approx(360e9)


class TestLanePartition:
    def test_bandwidth_split(self):
        link = nvlink(2, 0.9)
        partition = make_partition(3, 2, 1)
        assert partition.bandwidth(ArrayType.M, link) \
            == pytest.approx(135e9)
        assert partition.bandwidth(ArrayType.E, link) \
            == pytest.approx(45e9)

    def test_every_type_needs_a_lane(self):
        with pytest.raises(ValueError):
            make_partition(4, 2, 0)

    def test_enumerate_partitions_cover_six_lanes(self):
        partitions = enumerate_partitions(6)
        assert all(sum(count for _, count in p.lanes_by_type) == 6
                   for p in partitions)
        # Compositions of 6 into 3 positive parts: C(5,2) = 10.
        assert len(partitions) == 10

    def test_lanes_lookup(self):
        partition = make_partition(2, 2, 2)
        for array_type in ArrayType:
            assert partition.lanes(array_type) == 2
