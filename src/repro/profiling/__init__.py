"""Workload profiling (Figure 3 runtime breakdown)."""

from .intensity import (
    IntensityPoint,
    dataflow_intensities,
    intensity_report,
    machine_balance,
)
from .memory import (
    MemoryFootprint,
    footprint_sweep,
    format_sweep,
    model_footprint,
    prose_device_bytes,
)
from .breakdown import (
    CATEGORY_ORDER,
    FIGURE3_LENGTHS,
    BreakdownRow,
    format_breakdown,
    matmul_share_bounds,
    profile_breakdown,
)

__all__ = [
    "CATEGORY_ORDER",
    "IntensityPoint",
    "MemoryFootprint",
    "dataflow_intensities",
    "intensity_report",
    "machine_balance",
    "footprint_sweep",
    "format_sweep",
    "model_footprint",
    "prose_device_bytes",
    "FIGURE3_LENGTHS",
    "BreakdownRow",
    "format_breakdown",
    "matmul_share_bounds",
    "profile_breakdown",
]
