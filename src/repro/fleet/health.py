"""Per-instance heartbeat state machines and the fleet health monitor.

Every instance carries a four-state machine:

    healthy -> degraded -> healthy        (slow node, link flap storm)
    healthy/degraded -> dead              (power loss, hard failure)
    dead -> recovering -> healthy         (restart + warm-up)

Transitions are *observed* through heartbeats: an instance that dies at
``t`` is only known dead at ``t + interval * miss_threshold`` — the
detection latency every recovery timeline pays before a single lost
inference can be re-sharded.  The monitor is the single capacity
authority for the scheduler: :meth:`HealthMonitor.capacity_factor`
folds the state machine, any scripted degradation factor, a link-flap
multiplier, and the recovery warm-up discount into one number in
``[0, 1]``.

The monitor also runs the per-instance circuit breaker: an instance
that hard-fails more than ``DegradationPolicy.circuit_breaker_failures``
times is excluded from scheduling even after it reports healthy — the
classic flapping-node quarantine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..reliability.policy import HeartbeatConfig


class HealthState(enum.Enum):
    """Heartbeat-observed condition of one fleet instance."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DEAD = "dead"
    RECOVERING = "recovering"


#: Transitions the state machine accepts; anything else is a bug in the
#: caller (e.g. recovering an instance that never died).
_ALLOWED: Dict[HealthState, Tuple[HealthState, ...]] = {
    HealthState.HEALTHY: (HealthState.DEGRADED, HealthState.DEAD),
    HealthState.DEGRADED: (HealthState.HEALTHY, HealthState.DEGRADED,
                           HealthState.DEAD),
    HealthState.DEAD: (HealthState.RECOVERING,),
    HealthState.RECOVERING: (HealthState.HEALTHY, HealthState.DEAD),
}


@dataclass(frozen=True)
class HealthTransition:
    """One observed state change, for timelines and regression tests."""

    at_seconds: float
    instance_id: str
    from_state: HealthState
    to_state: HealthState
    reason: str = ""


@dataclass
class _InstanceHealth:
    """Mutable per-instance record behind the monitor's public API."""

    state: HealthState = HealthState.HEALTHY
    degraded_factor: float = 1.0
    link_factor: float = 1.0
    hard_failures: int = 0


class HealthMonitor:
    """Tracks every instance's state machine and capacity factor.

    Every transition is appended to :attr:`transitions`, the one record
    of the run's health history: the fleet report carries it, and the
    simulator turns it into ``health:<state>`` trace instants after the
    run.

    Args:
        instance_ids: all instances, in scheduling order.
        heartbeat: cadence/discount knobs.
        circuit_breaker_failures: hard failures after which the breaker
            opens and the instance is quarantined (0 disables).
    """

    def __init__(self, instance_ids: Sequence[str],
                 heartbeat: Optional[HeartbeatConfig] = None,
                 circuit_breaker_failures: int = 0) -> None:
        self.heartbeat = heartbeat or HeartbeatConfig()
        self.circuit_breaker_failures = circuit_breaker_failures
        self.transitions: List[HealthTransition] = []
        self._records: Dict[str, _InstanceHealth] = {
            instance_id: _InstanceHealth()
            for instance_id in instance_ids}
        if len(self._records) != len(instance_ids):
            raise ValueError("duplicate instance ids")

    # -- queries ---------------------------------------------------------

    def state(self, instance_id: str) -> HealthState:
        return self._records[instance_id].state

    def breaker_open(self, instance_id: str) -> bool:
        """True when the circuit breaker has quarantined the instance."""
        if self.circuit_breaker_failures <= 0:
            return False
        return (self._records[instance_id].hard_failures
                >= self.circuit_breaker_failures)

    def open_breakers(self) -> Tuple[str, ...]:
        return tuple(instance_id for instance_id in self._records
                     if self.breaker_open(instance_id))

    def capacity_factor(self, instance_id: str) -> float:
        """Effective capacity multiplier in [0, 1] for the scheduler."""
        record = self._records[instance_id]
        if record.state is HealthState.DEAD or self.breaker_open(
                instance_id):
            return 0.0
        if record.state is HealthState.RECOVERING:
            base = self.heartbeat.recovering_capacity
        elif record.state is HealthState.DEGRADED:
            base = record.degraded_factor
        else:
            base = 1.0
        return base * record.link_factor

    def schedulable(self, instance_id: str) -> bool:
        return self.capacity_factor(instance_id) > 0.0

    def alive_count(self) -> int:
        """Instances the scheduler may still place work on."""
        return sum(1 for instance_id in self._records
                   if self.schedulable(instance_id))

    # -- transitions -----------------------------------------------------

    def transition(self, instance_id: str, to_state: HealthState,
                   at_seconds: float, reason: str = "",
                   degraded_factor: Optional[float] = None) -> None:
        record = self._records[instance_id]
        if to_state not in _ALLOWED[record.state]:
            raise ValueError(
                f"illegal health transition {record.state.value} -> "
                f"{to_state.value} for {instance_id} ({reason or 'n/a'})")
        self.transitions.append(HealthTransition(
            at_seconds=at_seconds, instance_id=instance_id,
            from_state=record.state, to_state=to_state, reason=reason))
        if to_state is HealthState.DEAD:
            record.hard_failures += 1
        if to_state is HealthState.DEGRADED:
            record.degraded_factor = (
                degraded_factor if degraded_factor is not None
                else self.heartbeat.degraded_capacity)
        elif to_state is HealthState.HEALTHY:
            record.degraded_factor = 1.0
        record.state = to_state

    def set_link_factor(self, instance_id: str, factor: float) -> None:
        """Apply (or clear, with 1.0) a link-flap throughput multiplier."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"link factor must be in (0, 1], got {factor}")
        self._records[instance_id].link_factor = factor

    def transitions_of(self, instance_id: str) -> Tuple[HealthTransition,
                                                        ...]:
        return tuple(t for t in self.transitions
                     if t.instance_id == instance_id)
