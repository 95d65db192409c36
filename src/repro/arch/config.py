"""ProSE hardware configurations (Figure 9, Table 4).

A ProSE instance is a heterogeneous collection of systolic arrays —
M-Type (matmul + SIMD), G-Type (+ GELU LUTs), E-Type (+ Exp LUTs) — of
varying sizes and counts, fed by a statically partitioned host link.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from ..dataflow.patterns import ArrayType
from .interconnect import LanePartition, LinkConfig, make_partition, nvlink

#: Double-pumped matmul clock (paper Section 4.1).
MATMUL_FREQUENCY = 1.6e9

#: Halved SIMD / special-function clock.
SIMD_FREQUENCY = 0.8e9

#: Thread count chosen "through experimentation" in the paper.
DEFAULT_THREADS = 32


@dataclass(frozen=True)
class ArrayGroup:
    """A set of identical systolic arrays within one ProSE instance."""

    array_type: ArrayType
    size: int
    count: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.count <= 0:
            raise ValueError("array size and count must be positive")

    @property
    def pes(self) -> int:
        return self.count * self.size * self.size

    @property
    def label(self) -> str:
        return f"{self.count}x {self.size}x{self.size} {self.array_type.value}"


@dataclass(frozen=True)
class HardwareConfig:
    """One complete ProSE accelerator instance.

    Attributes:
        name: configuration label ("BestPerf", "MostEfficient", ...).
        groups: one :class:`ArrayGroup` per (type, size) combination; all
            three types must be present (functionality requires them).
        link: host-accelerator link operating point.
        partition: static lane split across array types.
        threads: orchestration software threads.
        use_input_buffer: provision the partial input buffer for A-operand
            reuse (Figure 11d).
        pooled: homogeneous-baseline mode — every array carries both LUT
            kinds (the 64×64 yes/yes row of Table 2) and may execute any
            dataflow, as the four-identical-arrays baseline of Figure 4.
        chained: ProSE's novel left-rotation dataflow chaining: chained
            MatMul→SIMD sequences keep intermediates in the accumulators.
            When False (conventional systolic baseline), every elementwise
            op costs a drain + host round trip + reload of the resident
            matrix — the "global dataflow" of Figure 11/12's TPU contrast.
        matmul_frequency / simd_frequency: the two clock domains.
    """

    name: str
    groups: Tuple[ArrayGroup, ...]
    link: LinkConfig = field(default_factory=lambda: nvlink(2, 0.9))
    partition: LanePartition = field(
        default_factory=lambda: make_partition(2, 2, 2))
    threads: int = DEFAULT_THREADS
    use_input_buffer: bool = True
    pooled: bool = False
    chained: bool = True
    matmul_frequency: float = MATMUL_FREQUENCY
    simd_frequency: float = SIMD_FREQUENCY

    def __post_init__(self) -> None:
        present = {group.array_type for group in self.groups}
        if present != set(ArrayType):
            raise ValueError(
                f"{self.name}: all of M, G, E types are required, "
                f"got {sorted(t.value for t in present)}")
        if self.threads <= 0:
            raise ValueError("threads must be positive")

    @property
    def total_pes(self) -> int:
        return sum(group.pes for group in self.groups)

    def type_bandwidth(self, array_type: ArrayType) -> float:
        """Bytes/second the static partition grants this type group."""
        return self.partition.bandwidth(array_type, self.link)

    def with_link(self, link: LinkConfig) -> "HardwareConfig":
        """The same hardware at a different link operating point."""
        return replace(self, link=link)


def _config(name: str, m: Tuple[int, int], g: Tuple[int, int],
            e: Tuple[int, int], partition: LanePartition,
            pooled: bool = False, chained: bool = True) -> HardwareConfig:
    return HardwareConfig(name=name, groups=(
        ArrayGroup(ArrayType.M, size=m[0], count=m[1]),
        ArrayGroup(ArrayType.G, size=g[0], count=g[1]),
        ArrayGroup(ArrayType.E, size=e[0], count=e[1]),
    ), partition=partition, pooled=pooled, chained=chained)


def best_perf() -> HardwareConfig:
    """Table 4 'BestPerf': 2× 64×64 M, 10× 16×16 G, 22× 16×16 E (16K PEs)."""
    return _config("BestPerf", (64, 2), (16, 10), (16, 22),
                   make_partition(2, 2, 2))


def most_efficient() -> HardwareConfig:
    """Table 4 'MostEfficient': 2× 64×64 M, 3× 32×32 G, 20× 16×16 E."""
    return _config("MostEfficient", (64, 2), (32, 3), (16, 20),
                   make_partition(2, 2, 2))


def homogeneous() -> HardwareConfig:
    """Table 4 'Homogeneous': 4× 64×64 arrays (one TPU-array equivalent)."""
    return _config("Homogeneous", (64, 2), (64, 1), (64, 1),
                   make_partition(2, 2, 2), pooled=True, chained=False)


def best_perf_plus() -> HardwareConfig:
    """Table 4 'BestPerf+': 20K PEs, NVLink 3.0-class links."""
    config = _config("BestPerf+", (64, 2), (32, 5), (32, 7),
                     make_partition(2, 2, 2))
    return config.with_link(nvlink(3, 0.9))


def most_efficient_plus() -> HardwareConfig:
    """Table 4 'MostEfficient+' (same mix as BestPerf+ per the DSE)."""
    config = _config("MostEfficient+", (64, 2), (32, 5), (32, 7),
                     make_partition(2, 2, 2))
    return config.with_link(nvlink(3, 0.9))


def homogeneous_plus() -> HardwareConfig:
    """Table 4 'Homogeneous+': 2+1+2 64×64 arrays (20K PEs)."""
    config = _config("Homogeneous+", (64, 2), (64, 1), (64, 2),
                     make_partition(2, 2, 2), pooled=True, chained=False)
    return config.with_link(nvlink(3, 0.9))


def table4_configs() -> Tuple[HardwareConfig, ...]:
    """All six select configurations of Table 4."""
    return (best_perf(), most_efficient(), homogeneous(),
            best_perf_plus(), most_efficient_plus(), homogeneous_plus())
