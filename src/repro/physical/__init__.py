"""Physical model: synthesis anchors, input buffers, power/area."""

from .energy import (
    IDLE_POWER_FRACTION,
    EnergyReport,
    energy_report,
    format_energy,
)
from .power import (
    PowerReport,
    array_characteristics,
    power_report,
    system_power_watts,
)
from .sram import input_buffer_bits
from .synthesis import (
    A100_DIE_AREA_MM2,
    A100_TDP_WATTS,
    TABLE2_ROWS,
    ArrayCharacteristics,
    characteristics,
    table2,
)

__all__ = [
    "EnergyReport",
    "IDLE_POWER_FRACTION",
    "energy_report",
    "format_energy",
    "A100_DIE_AREA_MM2",
    "A100_TDP_WATTS",
    "ArrayCharacteristics",
    "PowerReport",
    "TABLE2_ROWS",
    "array_characteristics",
    "characteristics",
    "input_buffer_bits",
    "power_report",
    "system_power_watts",
    "table2",
]
