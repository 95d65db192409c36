"""Tests for streaming buffers, Little's law, and the interconnect model."""

import numpy as np
import pytest

from repro.arch import (
    DEFAULT_DEPTH,
    NVLINK_LANES,
    StreamingBuffer,
    custom_link,
    enumerate_partitions,
    infinite_link,
    littles_law_depth,
    make_partition,
    nvlink,
)
from repro.arch.config import MATMUL_FREQUENCY, best_perf
from repro.dataflow import ArrayType


class TestLittlesLaw:
    def test_paper_provisioning_is_sufficient(self):
        # Every (type, size) point of the shipped design must be covered by
        # the 8-deep buffers at its per-array NVLink 2.0 share.
        config = best_perf()
        for group in config.groups:
            bandwidth = (config.type_bandwidth(group.array_type)
                         / group.count)
            requirement = littles_law_depth(
                per_array_bandwidth=bandwidth,
                array_size=group.size,
                frequency=MATMUL_FREQUENCY)
            assert requirement.sufficient, group.label

    def test_depth_grows_with_latency(self):
        shallow = littles_law_depth(45e9, 1e-6, 16, 1.6e9)
        deep = littles_law_depth(45e9, 1e-4, 16, 1.6e9)
        assert deep.required_depth > shallow.required_depth

    def test_consumption_caps_arrival(self):
        # An over-provisioned link cannot require more occupancy than the
        # array can drain per cycle.
        requirement = littles_law_depth(1e15, 1e-9, 16, 1.6e9)
        assert requirement.arrival_rate <= 1.6e9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            littles_law_depth(0, 1e-6, 16, 1.6e9)


class TestStreamingBuffer:
    def test_fifo_order(self):
        buffer = StreamingBuffer(depth=4, width=2)
        buffer.push(np.array([1.0, 2.0], dtype=np.float32))
        buffer.push(np.array([3.0, 4.0], dtype=np.float32))
        assert np.allclose(buffer.pop(), [1.0, 2.0])
        assert np.allclose(buffer.pop(), [3.0, 4.0])

    def test_full_buffer_stalls(self):
        buffer = StreamingBuffer(depth=2, width=1)
        assert buffer.push(np.array([1.0], dtype=np.float32))
        assert buffer.push(np.array([2.0], dtype=np.float32))
        assert not buffer.push(np.array([3.0], dtype=np.float32))
        assert buffer.stall_count == 1

    def test_default_depth_is_eight(self):
        assert StreamingBuffer().depth == DEFAULT_DEPTH

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            StreamingBuffer().pop()

    def test_entries_rounded_to_bf16(self):
        buffer = StreamingBuffer(depth=2, width=1)
        buffer.push(np.array([1.0 + 2.0 ** -12], dtype=np.float32))
        assert buffer.pop()[0] == 1.0

    def test_width_validated(self):
        buffer = StreamingBuffer(depth=2, width=4)
        with pytest.raises(ValueError):
            buffer.push(np.zeros(3, dtype=np.float32))


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
        assert all(p.total_lanes == 6 for p in partitions)
        # Compositions of 6 into 3 positive parts: C(5,2) = 10.
        assert len(partitions) == 10

    def test_lanes_lookup(self):
        partition = make_partition(2, 2, 2)
        for array_type in ArrayType:
            assert partition.lanes(array_type) == 2
