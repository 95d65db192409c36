"""Deterministic fluid simulation of a chaos campaign over the fleet.

The one fault-recovery model of the repo.  It runs the paper's system
(four ProSE instances behind one host, Section 3.2) as a 1-rack,
1-host, 4-instance fleet — fault-free, each instance calibrated on its
own shard reproduces :class:`~repro.system.multi.ProSESystem`'s shard
makespan — and scales to racks of heterogeneous hosts under
*correlated* failure scripts.  The execution model is fluid: each
instance drains its assigned inferences at its backend's calibrated
rate times the health monitor's capacity factor, and the simulation
advances from event to event (scripted chaos events, heartbeat
detections, warm-up completions, shard completions) in deterministic
order — no wall clock, no unordered containers, no hidden RNG state, so
a seeded run is bit-reproducible and independent of host load or sweep
worker count.

The recovery pipeline mirrors production incident anatomy:

1. an instance (or a whole rack) dies — its unfinished work is in
   limbo;
2. the heartbeat monitor notices after the missed-heartbeat window
   (the *detection latency* every recovery timeline pays);
3. the degradation-aware scheduler re-shards the lost work across the
   surviving capacity, paying fabric-tier transfer costs — unless the
   brownout floor triggers load-shedding, or too few survivors remain
   (outage: work waits for a scripted recovery, or is dropped);
4. survivors drain the extra work; the report's ``recovery_seconds``
   runs from the first failure to the last re-sharded inference, or to
   the shedding of an outage backlog no survivor was left to take,
   whichever is later.

Every phase is visible in the exported Perfetto trace: per-instance
``shard``/``recovery_shard`` spans, ``detection_window`` spans, and
instant events for failures, detections, re-shards, brownout sheds and
breaker trips.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..baselines.gpu import A100_MEASURED_POWER_WATTS, a100
from ..baselines.tpu import (
    TPUV2_POWER_WATTS,
    TPUV3_POWER_WATTS,
    tpu_v2,
    tpu_v3,
)
from ..model.config import BertConfig, protein_bert_base
from ..parallel.memo import cached_schedule
from ..physical.power import power_report
from ..reliability.faults import FaultModel
from ..reliability.policy import (
    DegradationPolicy,
    HeartbeatConfig,
    RetryPolicy,
    validate_policy_interplay,
)
from ..monitor.engine import Mark, Monitor, SloOutcome
from ..sched.host import HOST_POWER_WATTS
from ..telemetry import MetricsRegistry, Tracer
from .health import HealthMonitor, HealthState, HealthTransition
from .scenarios import (
    DEGRADE,
    FAIL,
    LINK_FLAP,
    RECOVER,
    UNDEGRADE,
    ChaosScenario,
    resolve_target,
)
from .scheduler import DegradationAwareScheduler, SharedPlan
from .topology import (
    GPU_A100,
    PROSE,
    TPU_V2,
    FabricModel,
    FleetTopology,
    Instance,
)


@dataclass(frozen=True)
class InstanceOutcome:
    """One instance's campaign, as reported."""

    instance_id: str
    backend: str
    allocated: float
    completed: float
    finish_seconds: float
    final_state: str
    breaker_open: bool = False


@dataclass(frozen=True)
class FleetReport:
    """What a chaos campaign cost, fleet-wide.

    Attributes:
        scenario: chaos script name (``"none"`` for a clean run).
        topology: human-readable fleet shape.
        batch: inferences requested.
        completed: inferences delivered (fluid — partial progress on a
            later-killed instance counts for the part that streamed
            back).
        shed: inferences dropped by brownout load-shedding, outage, or
            an unplaceable backlog.
        makespan_seconds: end-to-end wall-clock of the campaign.
        nominal_makespan_seconds: the same workload on a fully healthy
            fleet — the availability reference.
        reshards: re-shard assignments performed by the scheduler.
        resharded_inferences: work moved by those re-shards.
        recovery_seconds: first failure to the later of the last
            re-sharded completion and the shedding of an outage backlog
            (the end of a run in which no capacity returned); 0.0 when
            nothing failed (or nothing needed moving).
        failures: hard instance failures observed.
        detections: heartbeat detections that found lost work.
        brownouts: plans made below the capacity floor.
        link_retransmissions: fabric transfers repeated on transients.
        energy_joules: accelerator busy-energy plus host power for the
            full makespan.
        per_instance: per-instance outcomes, topology order.
        transitions: the health state-machine history.
        slo: service-impact summary (alerts fired, worst burn rate,
            budget remaining) when the run carried a live monitor;
            None otherwise.
    """

    scenario: str
    topology: str
    batch: int
    completed: float
    shed: float
    makespan_seconds: float
    nominal_makespan_seconds: float
    reshards: int
    resharded_inferences: float
    recovery_seconds: float
    failures: int
    detections: int
    brownouts: int
    link_retransmissions: int
    energy_joules: float
    per_instance: Tuple[InstanceOutcome, ...]
    transitions: Tuple[object, ...] = ()
    slo: Optional[SloOutcome] = None

    @property
    def goodput(self) -> float:
        """Delivered inferences per second of degraded wall-clock."""
        if self.makespan_seconds <= 0.0:
            return 0.0
        return self.completed / self.makespan_seconds

    @property
    def availability(self) -> float:
        """Delivered (requested minus shed) over requested work, times
        nominal over degraded makespan (capped at 1.0): a run that sheds
        work finishes early, but only what it delivered counts."""
        delivered = (self.batch - self.shed) / self.batch
        if self.makespan_seconds <= 0.0:
            return delivered
        return min(1.0, self.nominal_makespan_seconds
                   / self.makespan_seconds) * delivered

    def summary(self) -> str:
        text = (f"goodput={self.goodput:.1f} inf/s "
                f"availability={self.availability:.4f} "
                f"completed={self.completed:.1f}/{self.batch} "
                f"shed={self.shed:.1f} reshards={self.reshards} "
                f"recovery={self.recovery_seconds * 1e3:.3f} ms "
                f"failures={self.failures} "
                f"energy={self.energy_joules:.2f} J")
        if self.slo is not None:
            text += (f" alerts={self.slo.alerts} pages={self.slo.pages} "
                     f"worst_burn={self.slo.worst_burn_rate:.1f} "
                     f"budget_left={self.slo.budget_remaining:.1%}")
        return text


@dataclass
class _Sim:
    """Mutable per-instance execution state."""

    instance: Instance
    rate: float                 # backend inferences/second at full health
    power_watts: float
    remaining: float = 0.0
    segment_start: float = 0.0  # when the current constant-rate run began
    eff_rate: float = 0.0       # rate x capacity factor for this segment
    allocated: float = 0.0
    completed: float = 0.0
    active_seconds: float = 0.0
    lost: float = 0.0           # in-limbo work awaiting detection
    finish_seconds: float = 0.0
    has_recovery_work: bool = False

    @property
    def running(self) -> bool:
        return self.remaining > 0.0 and self.eff_rate > 0.0

    @property
    def projected_finish(self) -> float:
        return self.segment_start + self.remaining / self.eff_rate


class FleetSimulator:
    """Runs one workload over a fleet under an optional chaos script.

    Args:
        topology: the fleet shape and backend mix.
        model_config: the encoder scored fleet-wide (default
            Protein-BERT-base).
        policy: degradation policy — outage floor, brownout floor,
            shed fraction, circuit breaker.
        retry_policy: serving-layer retry knobs; only validated here
            against the heartbeat window the run detects failures with
            (:func:`~repro.reliability.validate_policy_interplay`), so
            a config that would loop at the serving layer fails fast at
            fleet-plan time.
        heartbeat: heartbeat cadence (the detection window) and
            capacity discounts.
        fabric: fabric tier bandwidths.
        fault_model: seeded random-fault source layered *under* any
            scripted scenario: spontaneous instance failures and
            fabric transients.  Inert by default.
        seq_len: tokens per inference.
        reference_batch: shard size used to calibrate per-backend
            rates (memoized through the shape-keyed schedule cache).
    """

    def __init__(self, topology: FleetTopology,
                 model_config: Optional[BertConfig] = None,
                 policy: Optional[DegradationPolicy] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 heartbeat: Optional[HeartbeatConfig] = None,
                 fabric: Optional[FabricModel] = None,
                 fault_model: Optional[FaultModel] = None,
                 seq_len: int = 128,
                 reference_batch: int = 8) -> None:
        if seq_len <= 0:
            raise ValueError("seq_len must be positive")
        if reference_batch <= 0:
            raise ValueError("reference_batch must be positive")
        self.topology = topology
        self.model_config = model_config or protein_bert_base()
        self.policy = policy or DegradationPolicy()
        self.retry_policy = retry_policy
        self.heartbeat = heartbeat or HeartbeatConfig()
        self.fabric = fabric or FabricModel()
        self.fault_model = fault_model or FaultModel()
        self.seq_len = seq_len
        self.reference_batch = reference_batch
        #: Tokens in (int32) plus the pooled embedding out (fp32).
        self.payload_bytes = float(
            4 * seq_len + 4 * self.model_config.hidden_size)
        #: Each instance's (pid, tid) trace track.
        self._tracks = {instance.instance_id: (instance.host_id,
                                               f"s{instance.slot}")
                        for instance in topology.instances}
        self._rate_cache: Dict[str, float] = {}
        self._power_cache: Dict[str, float] = {}
        rates = {instance.instance_id: self._backend_rate(instance)
                 for instance in topology.instances}
        self.scheduler = DegradationAwareScheduler(
            topology, rates, self.fabric, self.policy, self.payload_bytes)

    # -- backend calibration --------------------------------------------

    def _backend_rate(self, instance: Instance) -> float:
        """Nominal inferences/second of one instance's backend."""
        spec = instance.backend
        key = spec.label
        if key in self._rate_cache:
            return self._rate_cache[key]
        if spec.kind == PROSE:
            schedule = cached_schedule(
                spec.hardware, self.model_config,
                batch=self.reference_batch, seq_len=self.seq_len)
            rate = self.reference_batch / schedule.makespan_seconds
            power = power_report(spec.hardware).accelerator_power_w
        else:
            device = {GPU_A100: a100, TPU_V2: tpu_v2}.get(spec.kind,
                                                          tpu_v3)()
            rate = device.throughput(self.model_config,
                                     batch=self.reference_batch,
                                     seq_len=self.seq_len)
            power = {GPU_A100: A100_MEASURED_POWER_WATTS,
                     TPU_V2: TPUV2_POWER_WATTS}.get(spec.kind,
                                                    TPUV3_POWER_WATTS)
        self._rate_cache[key] = rate
        self._power_cache[key] = power
        return rate

    def _backend_power(self, instance: Instance) -> float:
        self._backend_rate(instance)
        return self._power_cache[instance.backend.label]

    # -- nominal schedule ------------------------------------------------

    def nominal_plan(self, batch: int) -> SharedPlan:
        """The full-health shard plan (the homogeneous reference)."""
        health = HealthMonitor(
            [inst.instance_id for inst in self.topology.instances],
            heartbeat=self.heartbeat)
        plan = self.scheduler.plan(float(batch), health)
        assert plan is not None  # a fresh monitor always has capacity
        return plan

    def nominal_makespan(self, batch: int) -> float:
        """Fleet makespan of the nominal plan on a healthy fleet."""
        plan = self.nominal_plan(batch)
        rates = self.scheduler.rates
        return max(
            assignment.dispatch_seconds
            + assignment.amount / rates[assignment.instance_id]
            for assignment in plan.assignments)

    # -- simulation ------------------------------------------------------

    def run(self, batch: int = 256,
            scenario: Optional[ChaosScenario] = None,
            tracer: Optional[Tracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            monitor: Optional[Monitor] = None) -> FleetReport:
        """Simulate ``batch`` inferences under the chaos script.

        With no scenario and an inert fault model the event loop
        processes only shard completions, and every per-instance finish
        reproduces the nominal plan bit-identically.

        A ``monitor`` (see :func:`repro.monitor.fleet_monitor`) is armed
        before anything is simulated.  The loop calls no observer: with a
        tracer or a monitor it logs each span, instant and mark, and with
        a monitor a :class:`_StateRow` per step (a completion or an event
        batch).  :meth:`_finish` reads the logs after the loop; a monitor
        tick sees every step at or before its time.  Under the fluid
        model each series is constant or linear between steps, so the
        replay is exact, and every simulated number is bit-identical with
        and without observers.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.fault_model.reset()
        nominal = self.nominal_makespan(batch)
        if self.retry_policy is not None:
            validate_policy_interplay(self.retry_policy, self.heartbeat,
                                      nominal)
        if monitor is not None:
            monitor.begin(nominal)
        health = HealthMonitor(
            [inst.instance_id for inst in self.topology.instances],
            heartbeat=self.heartbeat,
            circuit_breaker_failures=self.policy.circuit_breaker_failures)
        states: Dict[str, _Sim] = {}
        for instance in self.topology.instances:
            states[instance.instance_id] = _Sim(
                instance=instance, rate=self._backend_rate(instance),
                power_watts=self._backend_power(instance))

        run = _Run(states, health, _EventQueue(),
                   steps=None if monitor is None else [],
                   log=None if tracer is None and monitor is None else [])
        for event in (scenario.events if scenario is not None else ()):
            for instance in resolve_target(self.topology, event.target):
                run.events.push(event.at_fraction * nominal, event.action,
                                instance.instance_id, event)
        spontaneous = self.fault_model.failed_instances(
            len(self.topology.instances))
        for index in spontaneous:
            instance = self.topology.instances[index]
            at = self.fault_model.failure_fraction() * nominal
            run.events.push(at, FAIL, instance.instance_id, None)

        # Initial dispatch: the nominal plan, since everyone is healthy.
        plan = self.nominal_plan(batch)
        for assignment in plan.assignments:
            state = states[assignment.instance_id]
            dispatch = assignment.dispatch_seconds
            dispatch += self._link_retry_seconds(run, state,
                                                assignment.amount)
            state.allocated = assignment.amount
            state.remaining = assignment.amount
            state.segment_start = dispatch
            self._refresh_rate(state, health)
            if run.log is not None:
                run.note("span", "dispatch", 0.0, dispatch,
                         assignment.instance_id, "fabric",
                         tier=self.topology.tier_of(state.instance).value,
                         amount=assignment.amount)

        self._event_loop(run, nominal)
        return self._finish(run, batch, scenario, nominal, tracer, metrics,
                            monitor)

    def _finish(self, run: "_Run", batch: int,
                scenario: Optional[ChaosScenario], nominal: float,
                tracer: Optional[Tracer], metrics: Optional[MetricsRegistry],
                monitor: Optional[Monitor]) -> FleetReport:
        """Build the report, then every observer's output, from the run."""
        states, health = run.states, run.health
        makespan = max((state.finish_seconds for state in states.values()),
                       default=0.0)
        slo_outcome: Optional[SloOutcome] = None
        if monitor is not None:
            slo_outcome = self._replay(monitor, run,
                                       self._state_row(makespan, run))
        completed = reduce(add, (state.completed
                                 for state in states.values()), 0)
        recovery_seconds = 0.0
        if run.first_failure is not None:
            recovery_seconds = max(0.0,
                                   run.recovery_end - run.first_failure)
        energy = HOST_POWER_WATTS * self.topology.hosts * makespan
        for state in states.values():
            energy += state.power_watts * state.active_seconds
        outcomes = tuple(
            InstanceOutcome(
                instance_id=instance_id, backend=state.instance.backend.label,
                allocated=state.allocated, completed=state.completed,
                finish_seconds=state.finish_seconds,
                final_state=health.state(instance_id).value,
                breaker_open=health.breaker_open(instance_id))
            for instance_id, state in states.items())
        report = FleetReport(
            scenario=scenario.name if scenario is not None else "none",
            topology=self.topology.describe(), batch=batch,
            completed=completed, shed=run.shed,
            makespan_seconds=makespan, nominal_makespan_seconds=nominal,
            reshards=run.reshards, resharded_inferences=run.resharded,
            recovery_seconds=recovery_seconds,
            failures=run.failures, detections=run.detections,
            brownouts=run.brownouts,
            link_retransmissions=run.retransmissions,
            energy_joules=energy, per_instance=outcomes,
            transitions=tuple(health.transitions), slo=slo_outcome)
        if tracer is not None:
            self._trace(tracer, report, run)
        if metrics is None:
            return report
        metrics.counter("fleet/completed").inc(report.completed)
        metrics.counter("fleet/shed").inc(report.shed)
        metrics.counter("fleet/reshards").inc(report.reshards)
        metrics.counter("fleet/failures").inc(report.failures)
        metrics.counter("fleet/detections").inc(report.detections)
        metrics.counter("fleet/brownouts").inc(report.brownouts)
        metrics.counter("fleet/link_retransmissions").inc(
            report.link_retransmissions)
        metrics.gauge("fleet/goodput").set(report.goodput)
        metrics.gauge("fleet/availability").set(report.availability)
        metrics.gauge("fleet/recovery_seconds").set(
            report.recovery_seconds)
        metrics.gauge("fleet/makespan_seconds").set(
            report.makespan_seconds)
        metrics.gauge("fleet/energy_joules").set(report.energy_joules)
        histogram = metrics.histogram("fleet/instance_finish_seconds")
        for state in states.values():
            if state.finish_seconds > 0.0:
                histogram.observe(state.finish_seconds)
        return report

    # -- event loop ------------------------------------------------------

    def _event_loop(self, run: "_Run", nominal: float) -> None:
        detection = self.heartbeat.detection_seconds(nominal)
        warmup = self.heartbeat.warmup_seconds(nominal)
        if run.steps is not None:
            run.steps.append(self._state_row(0.0, run))
        t = 0.0
        while True:
            next_finish = min(
                (state.projected_finish for state in run.states.values()
                 if state.running), default=None)
            next_event = run.events.peek_time()
            if next_finish is None and next_event is None:
                break
            if next_event is None or (next_finish is not None
                                      and next_finish <= next_event):
                t = next_finish
                self._complete_at(run, t)
                batch = []
            else:
                t = next_event
                batch = run.events.pop_at(t)
            for action, instance_id, payload in batch:
                if action == FAIL:
                    self._on_fail(run, t, instance_id, detection,
                                  scripted=payload is not None)
                elif action == "detect":
                    self._on_detect(run, t, payload)
                elif action == RECOVER:
                    self._on_recover(run, t, instance_id, warmup)
                elif action == "warmup_done":
                    self._on_healthy(run, t, instance_id,
                                     HealthState.RECOVERING,
                                     "warmup_complete")
                elif action == DEGRADE:
                    self._on_degrade(run, t, instance_id, payload.factor)
                elif action == UNDEGRADE:
                    self._on_healthy(run, t, instance_id,
                                     HealthState.DEGRADED, "undegrade")
                elif action == LINK_FLAP:
                    self._on_flap(run, t, instance_id, payload, nominal)
                elif action == "flap_end":
                    self._on_flap_end(run, t, instance_id)
            if run.steps is not None:
                run.steps.append(self._state_row(t, run))
        # Anything still waiting for capacity that never returned is lost,
        # at the last step: recovery ends there.
        backlog = run.backlog
        if backlog > 0.0:
            run.shed += backlog
            run.backlog = 0.0
            run.recovery_end = max(run.recovery_end, t)

    # -- handlers --------------------------------------------------------

    def _link_retry_seconds(self, run: "_Run", state: _Sim,
                            amount: float) -> float:
        """Fabric retransmission delay drawn from the fault model."""
        if self.fault_model.rates.link_transient <= 0.0:
            return 0.0
        errors = self.fault_model.link_transients(int(amount))
        if not errors:
            return 0.0
        run.retransmissions += errors
        tier = self.topology.tier_of(state.instance)
        return errors * self.fabric.transfer_seconds(self.payload_bytes,
                                                     tier)

    def _progress(self, state: _Sim, t: float) -> None:
        """Fold the current constant-rate segment forward to ``t``."""
        if state.remaining <= 0.0 or state.eff_rate <= 0.0:
            state.segment_start = max(state.segment_start, t)
            return
        if t <= state.segment_start:
            return
        dt = t - state.segment_start
        done = min(state.remaining, state.eff_rate * dt)
        state.remaining -= done
        state.completed += done
        state.active_seconds += dt
        state.segment_start = t

    def _close_segment(self, run: "_Run", state: _Sim, t: float) -> None:
        """Progress to ``t`` and log the execution span just finished."""
        start = state.segment_start
        self._progress(state, t)
        if t > start and run.log is not None:
            recovery = state.has_recovery_work
            run.note("span", "recovery_shard" if recovery else "shard",
                     start, t, state.instance.instance_id,
                     "recovery" if recovery else "shard",
                     rate=state.eff_rate,
                     backend=state.instance.backend.label)

    def _refresh_rate(self, state: _Sim, health: HealthMonitor) -> None:
        state.eff_rate = state.rate * health.capacity_factor(
            state.instance.instance_id)

    def _complete_at(self, run: "_Run", t: float) -> None:
        for state in run.states.values():
            if state.running and state.projected_finish == t:
                self._close_segment(run, state, t)
                state.remaining = 0.0
                state.finish_seconds = t
                if state.has_recovery_work:
                    run.recovery_end = max(run.recovery_end, t)

    def _on_fail(self, run: "_Run", t: float, instance_id: str,
                 detection: float, scripted: bool) -> None:
        if run.health.state(instance_id) is HealthState.DEAD:
            return
        run.note("mark", "fault", t, instance_id=instance_id)
        state = run.states[instance_id]
        self._close_segment(run, state, t)
        state.lost = state.remaining
        state.remaining = 0.0
        state.eff_rate = 0.0
        state.finish_seconds = max(state.finish_seconds, t)
        run.health.transition(
            instance_id, HealthState.DEAD, t,
            reason="scripted" if scripted else "spontaneous")
        run.failures += 1
        if run.first_failure is None:
            run.first_failure = t
        run.events.push(t + detection, "detect", instance_id, instance_id)
        run.note("instant", "instance_failure", t, instance_id=instance_id,
                 lost=state.lost)
        run.note("span", "detection_window", t, t + detection, instance_id)

    def _on_detect(self, run: "_Run", t: float, instance_id: str) -> None:
        run.note("mark", "detection", t, instance_id=instance_id)
        state = run.states[instance_id]
        lost, state.lost = state.lost, 0.0
        run.note("instant", "failure_detected", t, instance=instance_id,
                 lost=lost)
        if lost <= 0.0:
            return
        run.detections += 1
        self._reshard(run, t, lost, exclude=(instance_id,))

    def _reshard(self, run: "_Run", t: float, work: float,
                 exclude: Tuple[str, ...] = ()) -> None:
        if run.health.alive_count() < self.policy.min_survivors:
            run.backlog += work
            run.note("instant", "outage", t, backlog=work)
            return
        plan = self.scheduler.plan(work, run.health, exclude=exclude,
                                   integral=False)
        if plan is None or not plan.assignments:
            run.backlog += work
            return
        if plan.brownout:
            run.brownouts += 1
            run.shed += plan.shed
            run.note("instant", "brownout_shed", t, shed=plan.shed,
                     capacity_fraction=plan.capacity_fraction)
        run.reshards += len(plan.assignments)
        run.resharded += plan.total
        run.note("instant", "reshard", t, category="recovery",
                 work=plan.total, targets=len(plan.assignments))
        for assignment in plan.assignments:
            target = run.states[assignment.instance_id]
            target.has_recovery_work = True
            target.allocated += assignment.amount
            if target.running:
                # Transfer overlaps the work already draining.
                self._progress(target, t)
                target.remaining += assignment.amount
            else:
                dispatch = assignment.dispatch_seconds
                dispatch += self._link_retry_seconds(
                    run, target, assignment.amount)
                target.remaining = assignment.amount
                target.segment_start = t + dispatch
                self._refresh_rate(target, run.health)
                if run.log is not None:
                    tier = self.topology.tier_of(target.instance).value
                    run.note("span", "dispatch", t, t + dispatch,
                             assignment.instance_id, "fabric",
                             amount=assignment.amount, tier=tier)

    def _on_recover(self, run: "_Run", t: float, instance_id: str,
                    warmup: float) -> None:
        if run.health.state(instance_id) is not HealthState.DEAD:
            return
        run.health.transition(instance_id, HealthState.RECOVERING, t,
                              reason="restart")
        run.events.push(t + warmup, "warmup_done", instance_id, None)
        self._refresh_rate(run.states[instance_id], run.health)
        if run.backlog > 0.0:
            backlog, run.backlog = run.backlog, 0.0
            self._reshard(run, t, backlog)

    def _on_healthy(self, run: "_Run", t: float, instance_id: str,
                    from_state: HealthState, reason: str) -> None:
        """Return an instance in ``from_state`` to full health."""
        if run.health.state(instance_id) is not from_state:
            return
        state = run.states[instance_id]
        self._progress(state, t)
        run.health.transition(instance_id, HealthState.HEALTHY, t,
                              reason=reason)
        self._refresh_rate(state, run.health)

    def _on_degrade(self, run: "_Run", t: float, instance_id: str,
                    factor: float) -> None:
        if run.health.state(instance_id) not in (HealthState.HEALTHY,
                                                  HealthState.DEGRADED):
            return
        run.note("mark", "fault", t, instance_id=instance_id)
        state = run.states[instance_id]
        self._progress(state, t)
        run.health.transition(instance_id, HealthState.DEGRADED, t,
                              reason="scripted", degraded_factor=factor)
        self._refresh_rate(state, run.health)

    def _on_flap(self, run: "_Run", t: float, instance_id: str, event,
                 nominal: float) -> None:
        run.note("mark", "fault", t, instance_id=instance_id)
        state = run.states[instance_id]
        self._progress(state, t)
        run.health.set_link_factor(instance_id, event.factor)
        if run.health.state(instance_id) is HealthState.HEALTHY:
            # The flap shows as degraded health; capacity loss comes
            # from the link factor alone (degraded_factor=1.0).
            run.health.transition(instance_id, HealthState.DEGRADED, t,
                                  reason="link_flap", degraded_factor=1.0)
        self._refresh_rate(state, run.health)
        end = t + event.duration_fraction * nominal
        run.events.push(end, "flap_end", instance_id, None)
        run.note("span", "link_flap", t, end, instance_id,
                 factor=event.factor)

    def _on_flap_end(self, run: "_Run", t: float, instance_id: str) -> None:
        state = run.states[instance_id]
        self._progress(state, t)
        run.health.set_link_factor(instance_id, 1.0)
        if run.health.state(instance_id) is HealthState.DEGRADED:
            last = run.health.transitions_of(instance_id)[-1]
            if last.reason == "link_flap":
                run.health.transition(instance_id, HealthState.HEALTHY, t,
                                      reason="link_flap_cleared")
        self._refresh_rate(state, run.health)

    # -- monitoring ------------------------------------------------------

    def _state_row(self, t: float, run: "_Run") -> "_StateRow":
        """What a monitor tick reads of the fleet as it stands at ``t``."""
        factors = [run.health.capacity_factor(instance_id)
                   for instance_id in run.states]
        total_rate = reduce(add, (state.rate
                                  for state in run.states.values()), 0)
        healthy_rate = reduce(add, (
            state.rate * factor
            for state, factor in zip(run.states.values(), factors)), 0)
        return _StateRow(
            t, healthy_rate / total_rate if total_rate > 0.0 else 0.0,
            (float(sum(factor > 0.0 for factor in factors)), run.shed,
             run.backlog,
             float(run.failures), float(run.reshards),
             float(run.retransmissions)),
            tuple((state.eff_rate, state.completed, state.running,
                   state.segment_start, state.remaining)
                  for state in run.states.values()))

    def _replay(self, monitor: Monitor, run: "_Run",
                final: "_StateRow") -> SloOutcome:
        """Hand the monitor the run as columns over its ticks.

        Ticks start at one sample interval and step by repeated
        addition; each reads the last row at or before its time.  The
        last tick, the first at or past the last step, reads ``final``:
        the fleet after the unplaced backlog is shed.  Every finish is a
        step, so that tick is at or past the makespan.  In-flight work
        is read from each instance's constant-rate segment, exact under
        the fluid model.
        """
        log = run.steps
        times = [row.t for row in log]
        ticks, rows = [], []
        t = monitor.sample_interval
        while times[-1] > t:
            ticks.append(t)
            rows.append(log[bisect.bisect_right(times, t) - 1])
            t += monitor.sample_interval
        ticks.append(t)
        rows.append(final)
        completed = []
        for t, row in zip(ticks, rows):
            total = 0.0
            for eff_rate, done, running, segment_start, remaining \
                    in row.instances:
                total += done
                if running and t > segment_start:
                    total += min(remaining, eff_rate * (t - segment_start))
            completed.append(total)
        capacity = [row.capacity for row in rows]
        series = {f"instance/{instance.instance_id}/rate":
                  [row.instances[index][0] for row in rows]
                  for index, instance in enumerate(self.topology.instances)}
        series["fleet/capacity_fraction"] = capacity
        series["fleet/completed"] = completed
        series.update(zip(_COUNTER_SERIES,
                          zip(*(row.counters for row in rows))))
        marks = [Mark(fact.start, fact.name, fact.instance_id)
                 for fact in run.log if fact.kind == "mark"]
        return monitor.observe(
            ticks, series,
            {"availability": (capacity, [1.0 - good for good in capacity])},
            marks).outcome()

    # -- reporting -------------------------------------------------------

    def _trace(self, tracer: Tracer, report: FleetReport,
               run: "_Run") -> None:
        """Record the logged spans and instants, then the summary; each
        health transition becomes an instant where the run made it."""
        transitions = run.health.transitions
        seen = 0
        for fact in run.log:
            self._health_instants(tracer, transitions[seen:fact.transitions])
            seen = fact.transitions
            pid, tid = self._tracks.get(fact.instance_id,
                                        ("fleet", "scheduler"))
            if fact.kind == "span":
                tracer.add_span(fact.name, fact.start, fact.end, pid=pid,
                                tid=tid, category=fact.category,
                                **fact.args)
            elif fact.kind == "instant":
                tracer.instant(fact.name, fact.start, pid=pid, tid=tid,
                               category=fact.category, **fact.args)
        self._health_instants(tracer, transitions[seen:])
        tracer.add_span(
            "fleet_campaign", 0.0, report.makespan_seconds,
            pid="fleet", tid="overview", category="fleet",
            scenario=report.scenario, batch=report.batch,
            goodput=report.goodput, reshards=report.reshards,
            nominal_seconds=report.nominal_makespan_seconds,
            completed=report.completed, failures=report.failures)
        for instance_id in run.health.open_breakers():
            pid, tid = self._tracks[instance_id]
            tracer.instant("breaker_open", report.makespan_seconds,
                           pid=pid, tid=tid, category="fault")

    def _health_instants(self, tracer: Tracer,
                         transitions: List[HealthTransition]) -> None:
        for change in transitions:
            pid, tid = self._tracks[change.instance_id]
            tracer.instant(
                f"health:{change.to_state.value}", change.at_seconds,
                pid=pid, tid=tid, category="health",
                from_state=change.from_state.value, reason=change.reason)


class _Fact(NamedTuple):
    """One thing the run did, as the observers read it after the loop.

    ``kind`` is ``"span"``, ``"instant"`` or ``"mark"`` (a monitor mark
    labelled ``name``); an instant or mark has ``end == start``.  An
    empty ``instance_id`` puts the fact on the fleet scheduler's track.
    ``transitions`` counts the health transitions made before it.
    """

    kind: str
    name: str
    start: float
    end: float
    instance_id: str
    category: str
    transitions: int
    args: Dict[str, object]


@dataclass
class _Run:
    """One run's state, accounting and record, shared by the handlers.

    The handlers change the state and append to the record; only
    :meth:`FleetSimulator._finish` reads the record, after the loop.
    """

    states: Dict[str, _Sim]
    health: HealthMonitor
    events: "_EventQueue"
    #: With a monitor: the fleet after each step of the loop.
    steps: Optional[List["_StateRow"]] = None
    failures: int = 0
    detections: int = 0
    reshards: int = 0
    resharded: float = 0.0
    brownouts: int = 0
    retransmissions: int = 0
    shed: float = 0.0
    backlog: float = 0.0
    first_failure: Optional[float] = None
    #: The last re-sharded completion, or the outage backlog's shed.
    recovery_end: float = 0.0
    #: Spans, instants and marks in run order; None with no tracer or
    #: monitor (hot call sites check it to skip building the arguments).
    log: Optional[List[_Fact]] = None

    def note(self, kind: str, name: str, start: float,
             end: Optional[float] = None, instance_id: str = "",
             category: str = "fault", **args: object) -> None:
        """Append a :class:`_Fact` to the run log, if one is kept."""
        if self.log is not None:
            self.log.append(_Fact(kind, name, start,
                                  start if end is None else end, instance_id,
                                  category, len(self.health.transitions),
                                  args))


class _StateRow(NamedTuple):
    """The fleet at one step of the run, as a monitor tick reads it."""

    t: float
    capacity: float
    counters: Tuple[float, ...]  # one per _COUNTER_SERIES name
    #: Per instance: eff_rate, completed, running, segment_start, remaining.
    instances: Tuple[Tuple[float, float, bool, float, float], ...]


_COUNTER_SERIES = ("fleet/alive", "fleet/shed", "fleet/backlog",
                   "fleet/failures", "fleet/reshards",
                   "fleet/link_retransmissions")


class _EventQueue:
    """Deterministic time-ordered queue with FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str, str, object]] = []
        self._seq = 0

    def push(self, time: float, action: str, instance_id: str,
             payload: object) -> None:
        heapq.heappush(self._heap,
                       (time, self._seq, action, instance_id, payload))
        self._seq += 1

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop_at(self, time: float) -> List[Tuple[str, str, object]]:
        """All events scheduled exactly at ``time``, in push order."""
        batch = []
        while self._heap and self._heap[0][0] == time:
            _, _, action, instance_id, payload = heapq.heappop(self._heap)
            batch.append((action, instance_id, payload))
        return batch
