"""Fleet-scale simulation: topology, health, scheduling, chaos.

Models failures of the single-host multi-instance system of
:mod:`repro.system` (a 1-rack, 1-host fleet) and generalizes it to racks
of heterogeneous hosts:

* :mod:`~repro.fleet.topology` — racks/hosts/slots, backend mix (ProSE
  configurations plus the calibrated A100/TPU baselines as schedulable
  capacity), and the three-tier fabric cost model;
* :mod:`~repro.fleet.health` — per-instance heartbeat state machines,
  detection latency, circuit breakers, and the capacity factors the
  scheduler consumes;
* :mod:`~repro.fleet.scheduler` — degradation- and topology-aware
  sharding with brownout load-shedding;
* :mod:`~repro.fleet.scenarios` — scripted correlated-failure
  scenarios (rack power loss, link flap storms, slow nodes, rolling
  restarts);
* :mod:`~repro.fleet.simulator` — the deterministic event loop that
  runs a workload under a chaos script and reports goodput, recovery
  time, and re-shard counts, with the full timeline exported as
  Perfetto spans.
"""

from ..reliability.policy import HeartbeatConfig
from .health import HealthMonitor, HealthState, HealthTransition
from .scenarios import (
    SCENARIO_BUILDERS,
    ChaosEvent,
    ChaosScenario,
    build_scenario,
    link_flap_storm,
    rack_power_loss,
    resolve_target,
    rolling_restart,
    slow_node,
)
from .scheduler import DegradationAwareScheduler, ShardAssignment, SharedPlan
from .simulator import FleetReport, FleetSimulator, InstanceOutcome
from .topology import (
    BackendSpec,
    FabricModel,
    FleetTopology,
    Instance,
    LinkTier,
    build_fleet,
)

__all__ = [
    "BackendSpec",
    "ChaosEvent",
    "ChaosScenario",
    "DegradationAwareScheduler",
    "FabricModel",
    "FleetReport",
    "FleetSimulator",
    "FleetTopology",
    "HealthMonitor",
    "HealthState",
    "HealthTransition",
    "HeartbeatConfig",
    "Instance",
    "InstanceOutcome",
    "LinkTier",
    "SCENARIO_BUILDERS",
    "ShardAssignment",
    "SharedPlan",
    "build_fleet",
    "build_scenario",
    "link_flap_storm",
    "rack_power_loss",
    "resolve_target",
    "rolling_restart",
    "slow_node",
]
