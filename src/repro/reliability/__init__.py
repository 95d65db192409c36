"""Fault injection, detection, and degradation-aware recovery.

The reliability subsystem threads one seeded :class:`FaultModel` through
every layer of the simulated stack:

* **arch** — bfloat16 bit flips in systolic GEMM tiles (ABFT
  column-checksum detection + recompute) and LUT evaluations (silent);
* **fleet** — transient link errors and whole-instance failures,
  detected after the missed-heartbeat window and re-sharded across the
  survivors (:class:`repro.fleet.FleetSimulator`; the paper's
  four-instance system is its 1-rack, 1-host case);
* **serving** — batch retries with capped exponential backoff and
  straggler-deadline reruns
  (:class:`repro.system.CampaignSimulator`).

Every fault-aware path is bit-identical to the fault-free one when the
model is inert (all rates zero), and bit-reproducible for a given seed.
"""

from .abft import (
    BF16_EPSILON,
    checksum_row,
    detect_corrupted_columns,
    detection_threshold,
)
from .faults import FaultModel, FaultRates, FaultStats, derive_task_seed
from .policy import (
    DegradationPolicy,
    HeartbeatConfig,
    RetryPolicy,
    validate_policy_interplay,
)
from .report import ReliabilityReport

__all__ = [
    "BF16_EPSILON",
    "DegradationPolicy",
    "FaultModel",
    "FaultRates",
    "FaultStats",
    "HeartbeatConfig",
    "ReliabilityReport",
    "RetryPolicy",
    "checksum_row",
    "derive_task_seed",
    "detect_corrupted_columns",
    "detection_threshold",
    "validate_policy_interplay",
]
