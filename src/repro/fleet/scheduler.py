"""Topology- and degradation-aware sharding for the fleet simulator.

The scheduler answers one question, repeatedly: *given what the health
monitor believes right now, where do these inferences go?*  Its weight
for an instance folds three signals together:

* **backend speed** — the calibrated nominal rate of the instance's
  backend (a ProSE configuration, or one of the A100/TPU baselines as
  slower, hotter schedulable capacity);
* **health** — the monitor's capacity factor (degraded and recovering
  instances are discounted, dead and circuit-broken ones excluded);
* **topology** — the fabric cost of getting a shard there.  Per
  inference, an instance effectively delivers
  ``1 / (1/rate + dispatch_seconds_per_inference)``; a fast instance
  across the inter-rack fabric can lose to a slower one on the
  coordinator's own NVLink.

Shards are integer-allocated by the largest-remainder method with
index-order tie-breaks, so a plan is a pure deterministic function of
(work, health snapshot) — the property every determinism test and the
``workers=1`` vs ``workers=N`` campaign parity rest on.

When schedulable capacity falls below the
:class:`~repro.reliability.DegradationPolicy` brownout floor, the plan
load-sheds a fraction of the work instead of queueing everything onto
the remnant — goodput degrades, latency for admitted work does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, Optional, Sequence, Tuple

from ..reliability.policy import DegradationPolicy
from .health import HealthMonitor
from .topology import FabricModel, FleetTopology


@dataclass(frozen=True)
class ShardAssignment:
    """One instance's slice of a plan."""

    instance_id: str
    amount: float
    dispatch_seconds: float
    effective_rate: float


@dataclass(frozen=True)
class SharedPlan:
    """The scheduler's answer: assignments plus shed accounting.

    Attributes:
        assignments: per-instance slices, topology order, zero-amount
            entries dropped.
        shed: work dropped by the brownout load-shedder.
        capacity_fraction: schedulable capacity over nominal capacity
            at planning time.
        brownout: True when the plan was made below the capacity floor.
    """

    assignments: Tuple[ShardAssignment, ...]
    shed: float = 0.0
    capacity_fraction: float = 1.0
    brownout: bool = False

    @property
    def total(self) -> float:
        return reduce(add, (assignment.amount
                            for assignment in self.assignments), 0)


class DegradationAwareScheduler:
    """Plans shard placement against the live health snapshot.

    Args:
        topology: the fleet shape.
        rates: nominal inferences/second per instance id (backend
            speed at full health).
        fabric: fabric tier bandwidths.
        policy: brownout floor / shed fraction.
        payload_bytes: fabric payload per inference (tokens in plus
            embedding out).
    """

    def __init__(self, topology: FleetTopology, rates: Dict[str, float],
                 fabric: FabricModel, policy: DegradationPolicy,
                 payload_bytes: float) -> None:
        missing = [instance.instance_id for instance in topology.instances
                   if instance.instance_id not in rates]
        if missing:
            raise ValueError(f"no nominal rate for instances: {missing}")
        self.topology = topology
        self.rates = dict(rates)
        self.fabric = fabric
        self.policy = policy
        self.payload_bytes = payload_bytes
        #: Fabric seconds per *inference* to each instance (payload
        #: streamed at the tier bandwidth; the fixed dispatch overhead
        #: is charged once per assignment, not per inference).
        self._per_inference_seconds = {
            instance.instance_id:
                payload_bytes / fabric.bandwidth(topology.tier_of(instance))
            for instance in topology.instances}
        #: Full-health end-to-end capacity, the brownout reference.
        self.nominal_capacity = reduce(add, (
            self._effective_rate(instance.instance_id, 1.0)
            for instance in topology.instances), 0)

    def _effective_rate(self, instance_id: str, factor: float) -> float:
        """End-to-end inferences/second including fabric streaming."""
        rate = self.rates[instance_id] * factor
        if rate <= 0.0:
            return 0.0
        return 1.0 / (1.0 / rate + self._per_inference_seconds[instance_id])

    def dispatch_seconds(self, instance_id: str, amount: float) -> float:
        """Fabric time to ship ``amount`` inferences to an instance."""
        instance = self.topology.by_id(instance_id)
        return self.fabric.transfer_seconds(
            amount * self.payload_bytes, self.topology.tier_of(instance))

    def capacity_fraction(self, monitor: HealthMonitor) -> float:
        """Schedulable capacity right now, as a fraction of nominal."""
        live = reduce(add, (
            self._effective_rate(instance.instance_id,
                                 monitor.capacity_factor(
                                     instance.instance_id))
            for instance in self.topology.instances), 0)
        if self.nominal_capacity <= 0.0:
            return 0.0
        return live / self.nominal_capacity

    def plan(self, work: float, monitor: HealthMonitor,
             exclude: Sequence[str] = (),
             integral: bool = True) -> Optional[SharedPlan]:
        """Place ``work`` inferences on the schedulable instances.

        Args:
            work: inferences to place (fractional amounts appear when
                re-sharding partially completed shards).
            monitor: the live health snapshot.
            exclude: instance ids to skip regardless of health (e.g.
                the instances whose loss triggered this re-shard).
            integral: round amounts to whole inferences by the largest
                remainder (initial plans); False keeps exact fractional
                shares (re-shards of fluid remainders).

        Returns:
            The plan, or ``None`` when no instance is schedulable (the
            caller decides between backlog and outage).
        """
        if work <= 0:
            return SharedPlan(assignments=(), capacity_fraction=(
                self.capacity_fraction(monitor)))
        excluded = set(exclude)
        weights = []
        for instance in self.topology.instances:
            instance_id = instance.instance_id
            if instance_id in excluded:
                continue
            factor = monitor.capacity_factor(instance_id)
            if factor <= 0.0:
                continue
            weights.append((instance_id,
                            self._effective_rate(instance_id, factor)))
        if not weights:
            return None

        capacity_fraction = self.capacity_fraction(monitor)
        shed = 0.0
        brownout = (self.policy.min_capacity_fraction > 0.0
                    and capacity_fraction
                    < self.policy.min_capacity_fraction)
        if brownout:
            shed = work * self.policy.shed_fraction
            work = work - shed

        total_weight = reduce(add, (weight for _, weight in weights), 0)
        raw = [(instance_id, work * weight / total_weight)
               for instance_id, weight in weights]
        if integral:
            floors = [(instance_id, float(int(amount)))
                      for instance_id, amount in raw]
            leftover = int(round(work - reduce(add, (a for _, a in floors),
                                               0)))
            remainders = sorted(
                range(len(raw)),
                key=lambda i: (-(raw[i][1] - floors[i][1]), i))
            amounts = [amount for _, amount in floors]
            for i in remainders[:leftover]:
                amounts[i] += 1.0
            raw = [(instance_id, amounts[i])
                   for i, (instance_id, _) in enumerate(raw)]
        assignments = tuple(
            ShardAssignment(
                instance_id=instance_id, amount=amount,
                dispatch_seconds=self.dispatch_seconds(instance_id,
                                                       amount),
                effective_rate=dict(weights)[instance_id])
            for instance_id, amount in raw if amount > 0.0)
        return SharedPlan(assignments=assignments, shed=shed,
                          capacity_fraction=capacity_fraction,
                          brownout=brownout)
