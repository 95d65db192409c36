"""Physical model: synthesis anchors, input buffers, scaling, power/area."""

from .energy import (
    IDLE_POWER_FRACTION,
    EnergyReport,
    energy_report,
    format_energy,
)
from .power import (
    PowerReport,
    accelerator_power_watts,
    area_mm2,
    array_characteristics,
    power_area_table,
    power_report,
    system_power_watts,
)
from .scaling import (
    AREA_FACTORS,
    DELAY_FACTORS,
    POWER_FACTORS,
    ScalingResult,
    scale_area,
    scale_delay,
    scale_frequency,
    scale_power,
)
from .sram import input_buffer_bits
from .synthesis import (
    A100_DIE_AREA_MM2,
    A100_TDP_WATTS,
    TABLE2_ROWS,
    ArrayCharacteristics,
    characteristics,
    table2,
    validate_clock_feasibility,
)

__all__ = [
    "EnergyReport",
    "IDLE_POWER_FRACTION",
    "energy_report",
    "format_energy",
    "A100_DIE_AREA_MM2",
    "A100_TDP_WATTS",
    "AREA_FACTORS",
    "ArrayCharacteristics",
    "DELAY_FACTORS",
    "POWER_FACTORS",
    "PowerReport",
    "ScalingResult",
    "TABLE2_ROWS",
    "accelerator_power_watts",
    "area_mm2",
    "array_characteristics",
    "characteristics",
    "input_buffer_bits",
    "power_area_table",
    "power_report",
    "scale_area",
    "scale_delay",
    "scale_frequency",
    "scale_power",
    "system_power_watts",
    "table2",
    "validate_clock_feasibility",
]
