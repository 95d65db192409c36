"""Commodity baseline device models: A100, TPUv2, TPUv3."""

from .gpu import (
    A100_MEASURED_POWER_WATTS,
    A100_MEMORY_BANDWIDTH,
    A100_PEAK_BF16_FLOPS,
    A100_PLATFORM,
    a100,
    a100_spec,
)
from .roofline import (
    OTHER_KINDS,
    DeviceSpec,
    RooflineDevice,
    best_batch_for_length,
    saturating,
)
from .tpu import (
    MXU_SIZE,
    TPUV2_POWER_WATTS,
    TPUV3_POWER_WATTS,
    tpu_v2,
    tpu_v2_spec,
    tpu_v3,
    tpu_v3_spec,
)

__all__ = [
    "A100_MEASURED_POWER_WATTS",
    "A100_MEMORY_BANDWIDTH",
    "A100_PEAK_BF16_FLOPS",
    "A100_PLATFORM",
    "DeviceSpec",
    "MXU_SIZE",
    "OTHER_KINDS",
    "RooflineDevice",
    "TPUV2_POWER_WATTS",
    "TPUV3_POWER_WATTS",
    "a100",
    "a100_spec",
    "best_batch_for_length",
    "saturating",
    "tpu_v2",
    "tpu_v2_spec",
    "tpu_v3",
    "tpu_v3_spec",
]
