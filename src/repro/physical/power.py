"""System-level power and area accounting for ProSE instances.

Combines the per-array synthesis numbers (Table 2 / the parametric model)
with the host-side power constants the paper measured via RAPL: the ProSE
system power is the accelerator's array power (with input buffers), plus
the CPU's duty-cycle-weighted active power, plus DRAM power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..arch.config import HardwareConfig
from ..dataflow.patterns import ArrayType
from ..sched.host import HOST_POWER_WATTS
from .synthesis import ArrayCharacteristics, characteristics


@dataclass(frozen=True)
class PowerReport:
    """Power/area decomposition of one ProSE configuration.

    Attributes:
        accelerator_power_w: sum of array (+InBuf) powers.
        host_power_w: duty-weighted CPU + DRAM power.
        area_mm2: total accelerator silicon area.
        per_group: (group label, power W, area mm²) rows.
    """

    accelerator_power_w: float
    host_power_w: float
    area_mm2: float
    per_group: Tuple[Tuple[str, float, float], ...]

    @property
    def system_power_w(self) -> float:
        return self.accelerator_power_w + self.host_power_w


def _array_luts(config: HardwareConfig, array_type: ArrayType
                ) -> Tuple[bool, bool]:
    """Which LUTs each array of the given type carries."""
    if config.pooled:
        # Homogeneous baseline arrays carry both LUT kinds (Table 2's
        # 64×64 yes/yes row) so any array can run any dataflow.
        return True, True
    return array_type is ArrayType.G, array_type is ArrayType.E


def array_characteristics(config: HardwareConfig, array_type: ArrayType,
                          size: int) -> ArrayCharacteristics:
    """Synthesis characteristics of one array within ``config``."""
    gelu, exp = _array_luts(config, array_type)
    return characteristics(size, gelu=gelu, exp=exp)


def power_report(config: HardwareConfig) -> PowerReport:
    """Full power/area report for a hardware configuration."""
    total_power_mw = 0.0
    total_area = 0.0
    rows = []
    for group in config.groups:
        char = array_characteristics(config, group.array_type, group.size)
        if config.use_input_buffer:
            power = char.inbuf_power_mw * group.count
            area = char.inbuf_area_mm2 * group.count
        else:
            power = char.power_mw * group.count
            area = char.area_mm2 * group.count
        total_power_mw += power
        total_area += area
        rows.append((group.label, power / 1000.0, area))
    return PowerReport(
        accelerator_power_w=total_power_mw / 1000.0,
        host_power_w=HOST_POWER_WATTS,
        area_mm2=total_area,
        per_group=tuple(rows))


def system_power_watts(config: HardwareConfig) -> float:
    """Accelerator + host power charged to ProSE inference."""
    return power_report(config).system_power_w
