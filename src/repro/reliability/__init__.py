"""Fault injection, detection, and degradation-aware recovery.

The reliability subsystem threads one seeded :class:`FaultModel` through
the fault-aware layers of the simulated stack:

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

from .faults import FaultModel, FaultRates, derive_task_seed
from .policy import (
    DegradationPolicy,
    HeartbeatConfig,
    RetryPolicy,
    validate_policy_interplay,
)
from .report import ReliabilityReport

__all__ = [
    "DegradationPolicy",
    "FaultModel",
    "FaultRates",
    "HeartbeatConfig",
    "ReliabilityReport",
    "RetryPolicy",
    "derive_task_seed",
    "validate_policy_interplay",
]
