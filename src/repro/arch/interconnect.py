"""Host-accelerator interconnect model (NVLink lanes, Section 4.2).

ProSE streams continuously from the host, so the external link is a
first-class architectural resource.  The paper provisions NVLink 2.0 as six
45 GB/s lanes (270 GB/s at a conservative 90% of the 300 GB/s spec) and
*statically partitions* the lanes across the M-, G-, and E-Type systolic
array groups; NVLink 3.0 doubles the per-generation total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..dataflow.patterns import ArrayType

GB = 1e9

#: Published per-generation raw link totals (bytes/second).
NVLINK_RAW_BANDWIDTH: Dict[str, float] = {
    "nvlink2": 300 * GB,
    "nvlink3": 600 * GB,
}

#: Lane counts per generation (six 45/90 GB/s lanes at 90% efficiency).
NVLINK_LANES = 6

#: Fixed software dispatch cost per host-accelerator transfer (driver,
#: doorbell, and the mutex-guarded I/O buffer handoff).
DISPATCH_OVERHEAD_SECONDS = 2.0e-6


@dataclass(frozen=True)
class LinkConfig:
    """An interconnect operating point.

    Attributes:
        name: label used in result tables ("NVLink 2.0 @ 90%", ...).
        total_bandwidth: achievable bytes/second across all lanes.
        lanes: number of independently assignable lanes.
    """

    name: str
    total_bandwidth: float
    lanes: int = NVLINK_LANES

    def __post_init__(self) -> None:
        if (not math.isfinite(self.total_bandwidth)
                or self.total_bandwidth <= 0 or self.lanes <= 0):
            raise ValueError("bandwidth and lanes must be positive, and "
                             "bandwidth finite")

    @property
    def lane_bandwidth(self) -> float:
        return self.total_bandwidth / self.lanes


def nvlink(generation: int, efficiency: float = 0.9) -> LinkConfig:
    """Standard operating points used throughout the evaluation.

    Args:
        generation: 2 or 3.
        efficiency: achievable fraction of raw bandwidth (paper uses 80%
            and 90%).
    """
    key = f"nvlink{generation}"
    if key not in NVLINK_RAW_BANDWIDTH:
        raise ValueError("NVLink generation must be 2 or 3")
    if not 0 < efficiency <= 1:
        raise ValueError("efficiency must be in (0, 1]")
    total = NVLINK_RAW_BANDWIDTH[key] * efficiency
    return LinkConfig(
        name=f"NVLink {generation}.0 @ {int(efficiency * 100)}% "
             f"{total / GB:.0f} GB/s",
        total_bandwidth=total)


def infinite_link() -> LinkConfig:
    """The evaluation's 'Infinite' bandwidth point."""
    return LinkConfig(name="Infinite", total_bandwidth=1e18)


def custom_link(bandwidth_gbps: float) -> LinkConfig:
    """A link with an arbitrary total bandwidth in GB/s (roofline sweeps)."""
    return LinkConfig(name=f"{bandwidth_gbps:.0f} GB/s",
                      total_bandwidth=bandwidth_gbps * GB)


@dataclass(frozen=True)
class LanePartition:
    """A static assignment of link lanes to array-type groups.

    Attributes:
        lanes_by_type: lanes granted to each of M, G, E.  Every type needs
            at least one lane (all types are required for functionality).
    """

    lanes_by_type: Tuple[Tuple[ArrayType, int], ...]

    def __post_init__(self) -> None:
        seen = {t for t, _ in self.lanes_by_type}
        if seen != set(ArrayType):
            raise ValueError("partition must cover M, G, and E types")
        if any(count < 1 for _, count in self.lanes_by_type):
            raise ValueError("every array type needs at least one lane")

    def lanes(self, array_type: ArrayType) -> int:
        for candidate, count in self.lanes_by_type:
            if candidate is array_type:
                return count
        raise KeyError(array_type)

    def bandwidth(self, array_type: ArrayType, link: LinkConfig) -> float:
        """Bytes/second available to one array-type group."""
        return link.lane_bandwidth * self.lanes(array_type)


def make_partition(m_lanes: int, g_lanes: int, e_lanes: int) -> LanePartition:
    """Convenience constructor for a static M/G/E lane split."""
    return LanePartition(lanes_by_type=(
        (ArrayType.M, m_lanes), (ArrayType.G, g_lanes), (ArrayType.E, e_lanes)))


def enumerate_partitions(total_lanes: int = NVLINK_LANES):
    """All static partitions of ``total_lanes`` over the three types.

    The DSE sweeps this set per hardware mix ("The number of lanes per
    systolic array type is swept as part of the design space exploration").
    """
    partitions = []
    for m in range(1, total_lanes - 1):
        for g in range(1, total_lanes - m):
            e = total_lanes - m - g
            if e >= 1:
                partitions.append(make_partition(m, g, e))
    return partitions
