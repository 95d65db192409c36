"""Design-space enumeration (Table 3).

The DSE sweeps heterogeneous mixes of systolic array types, sizes, and
counts at a fixed PE budget (16384 PEs = one TPU 128×128 array, or other
budgets for the Figure 17 resource sweep):

* M-Type must be 64×64 ("at least 64×64 for the performance to be
  competitive"), counts 1-3;
* G-Type and E-Type are 32×32 (counts 1-15) or 16×16 (counts 1-31);
* every type needs a count of at least one (all are needed for
  functionality);
* NVLink lanes are statically partitioned per type and swept as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..arch.config import ArrayGroup, HardwareConfig
from ..arch.interconnect import LanePartition, LinkConfig, make_partition, nvlink
from ..dataflow.patterns import ArrayType

#: Table 3 limits.
M_SIZE = 64
M_MAX_COUNT = 3
GE_SIZES = (32, 16)
GE_MAX_COUNTS = {32: 15, 16: 31}

#: Default PE budget: resource-equivalent to one TPU 128×128 systolic array.
DEFAULT_PE_BUDGET = 16384

#: Lane partitions swept per mix (two points, as the paper's 238-config
#: space works out to roughly two lane options per hardware mix).
DEFAULT_PARTITIONS: Tuple[LanePartition, ...] = (
    make_partition(2, 2, 2),
    make_partition(3, 1, 2),
)


@dataclass(frozen=True)
class Mix:
    """One hardware mix: M/G/E sizes and counts (before lane assignment)."""

    m_count: int
    g_size: int
    g_count: int
    e_size: int
    e_count: int

    @property
    def label(self) -> str:
        return (f"M{M_SIZE}x{self.m_count} "
                f"G{self.g_size}x{self.g_count} "
                f"E{self.e_size}x{self.e_count}")


def enumerate_mixes(pe_budget: int = DEFAULT_PE_BUDGET) -> List[Mix]:
    """All Table 3 mixes whose PE count equals ``pe_budget`` exactly."""
    mixes: List[Mix] = []
    for m_count in range(1, M_MAX_COUNT + 1):
        remaining_after_m = pe_budget - m_count * M_SIZE * M_SIZE
        if remaining_after_m <= 0:
            continue
        for g_size in GE_SIZES:
            for g_count in range(1, GE_MAX_COUNTS[g_size] + 1):
                remaining = remaining_after_m - g_count * g_size * g_size
                if remaining <= 0:
                    break
                for e_size in GE_SIZES:
                    e_pes = e_size * e_size
                    if remaining % e_pes != 0:
                        continue
                    e_count = remaining // e_pes
                    if 1 <= e_count <= GE_MAX_COUNTS[e_size]:
                        mixes.append(Mix(m_count, g_size, g_count,
                                         e_size, e_count))
    return mixes


def mix_to_config(mix: Mix, partition: LanePartition,
                  link: LinkConfig = None,
                  name: str = "") -> HardwareConfig:
    """Materialize a mix + lane partition into a HardwareConfig."""
    link = link or nvlink(2, 0.9)
    return HardwareConfig(
        name=name or f"{mix.label} lanes={tuple(c for _, c in partition.lanes_by_type)}",
        groups=(
            ArrayGroup(ArrayType.M, size=M_SIZE, count=mix.m_count),
            ArrayGroup(ArrayType.G, size=mix.g_size, count=mix.g_count),
            ArrayGroup(ArrayType.E, size=mix.e_size, count=mix.e_count),
        ),
        link=link,
        partition=partition)


def enumerate_configs(pe_budget: int = DEFAULT_PE_BUDGET,
                      partitions: Sequence[LanePartition] = DEFAULT_PARTITIONS,
                      link: LinkConfig = None) -> Iterator[HardwareConfig]:
    """The full DSE configuration space (mixes × lane partitions)."""
    for mix in enumerate_mixes(pe_budget):
        for partition in partitions:
            yield mix_to_config(mix, partition, link)


def space_size(pe_budget: int = DEFAULT_PE_BUDGET,
               partitions: Sequence[LanePartition] = DEFAULT_PARTITIONS
               ) -> int:
    """Number of configurations the sweep will evaluate."""
    return len(enumerate_mixes(pe_budget)) * len(partitions)
