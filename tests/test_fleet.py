"""Tests for the fleet simulator: topology, health, scheduling, chaos."""

import pytest

from repro.fleet import (
    BackendSpec,
    ChaosEvent,
    ChaosScenario,
    DegradationAwareScheduler,
    FabricModel,
    FleetSimulator,
    FleetTopology,
    HealthMonitor,
    HealthState,
    HeartbeatConfig,
    Instance,
    LinkTier,
    build_fleet,
    build_scenario,
    resolve_target,
)
from repro.arch.config import best_perf
from repro.model.config import protein_bert_tiny
from repro.parallel.memo import cached_schedule
from repro.physical import energy_report, power_report
from repro.proteins.workloads import bucket_batches, screening_campaign
from repro.reliability import (
    DegradationPolicy,
    FaultModel,
    FaultRates,
    RetryPolicy,
)
from repro.sched.host import HOST_POWER_WATTS, HostModel
from repro.sched.orchestrator import Orchestrator
from repro.system import CampaignSimulator, ProSESystem
from repro.telemetry import MetricsRegistry, Tracer, build_rollup

TINY = protein_bert_tiny()


def tiny_simulator(topology=None, **kwargs):
    kwargs.setdefault("model_config", TINY)
    kwargs.setdefault("seq_len", 64)
    kwargs.setdefault("reference_batch", 4)
    return FleetSimulator(topology or build_fleet(
        racks=2, hosts_per_rack=2, instances_per_host=2), **kwargs)


class TestTopology:
    def test_build_fleet_shape_and_ids(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=3)
        assert topology.racks == 2
        assert topology.hosts == 4
        assert len(topology.instances) == 12
        assert topology.instances[0].instance_id == "r0h0s0"
        assert topology.by_id("r1h1s2").rack == 1

    def test_fabric_tiers_from_coordinator(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=1)
        tiers = {instance.instance_id: topology.tier_of(instance)
                 for instance in topology.instances}
        assert tiers["r0h0s0"] is LinkTier.NVLINK
        assert tiers["r0h1s0"] is LinkTier.INTRA_RACK
        assert tiers["r1h0s0"] is LinkTier.INTER_RACK
        assert tiers["r1h1s0"] is LinkTier.INTER_RACK

    def test_transfer_cost_ordering(self):
        fabric = FabricModel()
        payload = 1e6
        assert (fabric.transfer_seconds(payload, LinkTier.NVLINK)
                < fabric.transfer_seconds(payload, LinkTier.INTRA_RACK)
                < fabric.transfer_seconds(payload, LinkTier.INTER_RACK))

    def test_duplicate_positions_rejected(self):
        instance = Instance(rack=0, host=0, slot=0)
        with pytest.raises(ValueError):
            FleetTopology(instances=(instance, Instance(rack=0, host=0,
                                                        slot=0)))

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="quantum")
        with pytest.raises(ValueError):
            BackendSpec(kind="a100",
                        hardware=BackendSpec().hardware)
        assert BackendSpec().hardware is not None  # prose auto-fills

    def test_heterogeneous_fleet_mixes_baselines(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2, heterogeneous=True)
        labels = {instance.backend.label for instance in topology.instances}
        assert any(label.startswith("prose:") for label in labels)
        assert "a100" in labels
        assert "tpuv3" in labels
        assert "a100" in topology.describe()


class TestHealthMonitor:
    def monitor(self, **kwargs):
        return HealthMonitor(["a", "b", "c"], **kwargs)

    def test_starts_healthy_at_full_capacity(self):
        monitor = self.monitor()
        assert monitor.state("a") is HealthState.HEALTHY
        assert monitor.capacity_factor("a") == 1.0
        assert monitor.alive_count() == 3

    def test_lifecycle_and_capacity_factors(self):
        monitor = self.monitor(heartbeat=HeartbeatConfig(
            recovering_capacity=0.5))
        monitor.transition("a", HealthState.DEGRADED, 1.0,
                           degraded_factor=0.25)
        assert monitor.capacity_factor("a") == 0.25
        monitor.transition("a", HealthState.DEAD, 2.0)
        assert monitor.capacity_factor("a") == 0.0
        assert monitor.alive_count() == 2
        monitor.transition("a", HealthState.RECOVERING, 3.0)
        assert monitor.capacity_factor("a") == 0.5
        monitor.transition("a", HealthState.HEALTHY, 4.0)
        assert monitor.capacity_factor("a") == 1.0
        states = [t.to_state for t in monitor.transitions_of("a")]
        assert states == [HealthState.DEGRADED, HealthState.DEAD,
                          HealthState.RECOVERING, HealthState.HEALTHY]

    def test_illegal_transitions_rejected(self):
        monitor = self.monitor()
        with pytest.raises(ValueError):
            monitor.transition("a", HealthState.RECOVERING, 1.0)
        monitor.transition("a", HealthState.DEAD, 1.0)
        with pytest.raises(ValueError):
            monitor.transition("a", HealthState.HEALTHY, 2.0)

    def test_link_factor_multiplies(self):
        monitor = self.monitor()
        monitor.set_link_factor("b", 0.4)
        assert monitor.capacity_factor("b") == 0.4
        monitor.transition("b", HealthState.DEGRADED, 1.0,
                           degraded_factor=0.5)
        assert monitor.capacity_factor("b") == pytest.approx(0.2)
        with pytest.raises(ValueError):
            monitor.set_link_factor("b", 0.0)

    def test_circuit_breaker_quarantines_flapper(self):
        monitor = self.monitor(circuit_breaker_failures=2)
        for _ in range(2):
            monitor.transition("c", HealthState.DEAD, 1.0)
            monitor.transition("c", HealthState.RECOVERING, 2.0)
            monitor.transition("c", HealthState.HEALTHY, 3.0)
        assert monitor.breaker_open("c")
        assert monitor.capacity_factor("c") == 0.0
        assert monitor.open_breakers() == ("c",)
        assert monitor.alive_count() == 2

    def test_detection_latency_scales_with_heartbeat(self):
        heartbeat = HeartbeatConfig(interval_fraction=0.02,
                                    miss_threshold=3)
        assert heartbeat.detection_seconds(10.0) == pytest.approx(0.6)


class TestScheduler:
    def scheduler(self, policy=None):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=1)
        rates = {inst.instance_id: 100.0 for inst in topology.instances}
        # Payload large enough that fabric-tier streaming time is on the
        # order of compute time, so topology visibly shapes the plan.
        return DegradationAwareScheduler(
            topology, rates, FabricModel(), policy or DegradationPolicy(),
            payload_bytes=1e8), topology

    def test_integral_plan_conserves_work(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        plan = scheduler.plan(101.0, monitor)
        assert plan.total == 101.0
        assert all(amount == int(amount)
                   for amount in (a.amount for a in plan.assignments))

    def test_topology_penalty_shifts_work_to_near_instances(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        plan = scheduler.plan(1000.0, monitor)
        amounts = {a.instance_id: a.amount for a in plan.assignments}
        # Same backend rate everywhere: only fabric distance differs.
        assert amounts["r0h0s0"] > amounts["r0h1s0"] > amounts["r1h0s0"]

    def test_dead_and_excluded_instances_get_nothing(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        monitor.transition("r0h0s0", HealthState.DEAD, 1.0)
        plan = scheduler.plan(30.0, monitor, exclude=("r0h1s0",))
        placed = {a.instance_id for a in plan.assignments}
        assert "r0h0s0" not in placed and "r0h1s0" not in placed
        assert plan.total == 30.0

    def test_no_schedulable_capacity_returns_none(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        for instance in topology.instances:
            monitor.transition(instance.instance_id, HealthState.DEAD, 1.0)
        assert scheduler.plan(10.0, monitor) is None

    def test_brownout_sheds_below_capacity_floor(self):
        scheduler, topology = self.scheduler(policy=DegradationPolicy(
            min_capacity_fraction=0.6, shed_fraction=0.5))
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        for instance_id in ("r0h1s0", "r1h0s0", "r1h1s0"):
            monitor.transition(instance_id, HealthState.DEAD, 1.0)
        plan = scheduler.plan(40.0, monitor, integral=False)
        assert plan.brownout
        assert plan.shed == pytest.approx(20.0)
        assert plan.total == pytest.approx(20.0)
        assert plan.capacity_fraction < 0.6

    def test_plan_is_deterministic(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        monitor.transition("r1h1s0", HealthState.DEGRADED, 1.0,
                           degraded_factor=0.3)
        assert (scheduler.plan(77.0, monitor)
                == scheduler.plan(77.0, monitor))


class TestChaosScenarios:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(at_fraction=-0.1, action="fail", target="rack:0")
        with pytest.raises(ValueError):
            ChaosEvent(at_fraction=0.1, action="explode", target="rack:0")
        with pytest.raises(ValueError):
            ChaosEvent(at_fraction=0.1, action="link_flap",
                       target="rack:0", duration_fraction=0.0)

    def test_events_sorted_by_time(self):
        scenario = ChaosScenario(
            name="s", description="d",
            events=(ChaosEvent(at_fraction=0.9, action="fail",
                               target="rack:0"),
                    ChaosEvent(at_fraction=0.1, action="fail",
                               target="rack:1")))
        assert [e.at_fraction for e in scenario.events] == [0.1, 0.9]

    def test_resolve_target_forms(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        assert len(resolve_target(topology, "rack:1")) == 4
        assert len(resolve_target(topology, "host:0/1")) == 2
        assert resolve_target(topology,
                              "instance:r0h0s1")[0].slot == 1
        with pytest.raises(ValueError):
            resolve_target(topology, "pod:3")

    def test_rack_power_loss_requires_two_racks(self):
        topology = build_fleet(racks=1, hosts_per_rack=2,
                               instances_per_host=2)
        with pytest.raises(ValueError):
            build_scenario("rack_power_loss", topology)
        with pytest.raises(KeyError):
            build_scenario("meteor_strike", topology)


class TestFleetSimulatorCleanRun:
    def test_no_faults_reproduces_nominal_plan_bit_identically(self):
        simulator = tiny_simulator()
        plan = simulator.nominal_plan(64)
        report = simulator.run(batch=64)
        assert report.makespan_seconds == report.nominal_makespan_seconds
        assert report.availability == 1.0
        expected = {a.instance_id: a.dispatch_seconds + a.amount
                    / simulator.scheduler.rates[a.instance_id]
                    for a in plan.assignments}
        for outcome in report.per_instance:
            assert outcome.finish_seconds == expected[outcome.instance_id]
            assert outcome.completed == outcome.allocated
        assert report.completed == 64.0
        assert report.shed == 0.0
        assert report.reshards == 0 and report.failures == 0

    def test_clean_run_is_deterministic(self):
        assert tiny_simulator().run(batch=48) == tiny_simulator().run(
            batch=48)

    def test_heterogeneous_backends_have_distinct_rates(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=1, heterogeneous=True)
        simulator = tiny_simulator(topology)
        rates = {label: simulator.scheduler.rates[instance.instance_id]
                 for label, instance in
                 ((instance.backend.label, instance)
                  for instance in topology.instances)}
        assert len(set(rates.values())) > 1
        report = simulator.run(batch=32)
        assert report.completed == 32.0

    def test_input_validation(self):
        simulator = tiny_simulator()
        with pytest.raises(ValueError):
            simulator.run(batch=0)
        with pytest.raises(ValueError):
            tiny_simulator(seq_len=0)


class TestFleetSimulatorChaos:
    def test_rack_power_loss_recovers_via_resharding(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        scenario = build_scenario("rack_power_loss", topology)
        report = simulator.run(batch=64, scenario=scenario)
        assert report.failures == 4
        assert report.reshards > 0
        assert report.recovery_seconds > 0.0
        assert report.completed == pytest.approx(64.0)  # re-sharded
        assert report.goodput > 0.0
        assert report.availability < 1.0
        dead = [o for o in report.per_instance if o.final_state == "dead"]
        assert len(dead) == 4
        assert all(o.instance_id.startswith("r1") for o in dead)

    def test_chaos_run_is_deterministic(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        scenario = build_scenario("rolling_restart", topology)

        def run():
            return tiny_simulator(
                topology,
                fault_model=FaultModel(
                    FaultRates(link_transient=0.05), seed=7)).run(
                batch=64, scenario=scenario)

        assert run() == run()

    def test_slow_node_stretches_makespan(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        report = simulator.run(batch=64,
                               scenario=build_scenario("slow_node",
                                                       topology))
        assert report.failures == 0
        assert (report.makespan_seconds
                > report.nominal_makespan_seconds)
        degraded = [o for o in report.per_instance
                    if o.final_state == "degraded"]
        assert len(degraded) == 1

    def test_link_flap_storm_degrades_then_clears(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        report = simulator.run(
            batch=64, scenario=build_scenario("link_flap_storm", topology))
        assert report.failures == 0
        assert report.availability < 1.0
        flap_states = [t.to_state for t in report.transitions]
        assert HealthState.DEGRADED in flap_states

    def test_rolling_restart_recovers_everyone(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        report = simulator.run(
            batch=64, scenario=build_scenario("rolling_restart", topology))
        assert report.completed == pytest.approx(64.0)
        assert report.failures == 8
        assert all(o.final_state in ("healthy", "recovering")
                   for o in report.per_instance)

    def test_circuit_breaker_opens_on_repeat_failures(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(
            topology,
            policy=DegradationPolicy(circuit_breaker_failures=1))
        report = simulator.run(
            batch=64, scenario=build_scenario("rolling_restart", topology))
        assert any(o.breaker_open for o in report.per_instance)
        assert report.completed > 0.0

    def test_brownout_sheds_load_when_capacity_collapses(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(
            topology,
            policy=DegradationPolicy(min_capacity_fraction=0.9,
                                     shed_fraction=0.5))
        report = simulator.run(
            batch=64, scenario=build_scenario("rack_power_loss", topology))
        assert report.brownouts > 0
        assert report.shed > 0.0
        assert report.completed < 64.0
        assert report.completed + report.shed == pytest.approx(64.0)

    def test_retry_policy_interplay_validated_at_run(self):
        simulator = tiny_simulator(
            retry_policy=RetryPolicy(backoff_base_seconds=1e6,
                                     backoff_cap_seconds=1e6))
        with pytest.raises(ValueError, match="straggler deadline"):
            simulator.run(batch=32)

    def test_interplay_checks_the_heartbeat_window_it_detects_with(self):
        deadline = RetryPolicy(backoff_base_seconds=0.0,
                               backoff_cap_seconds=0.0,
                               straggler_deadline_multiple=1.0)
        # Three missed beats of 0.5x nominal: detection at 1.5x nominal
        # would trail the 1.0x straggler kill.
        late = tiny_simulator(retry_policy=deadline,
                              heartbeat=HeartbeatConfig(
                                  interval_fraction=0.5))
        with pytest.raises(ValueError, match="detection window"):
            late.run(batch=32)
        # The default heartbeat detects at 0.06x nominal.
        report = tiny_simulator(retry_policy=deadline).run(batch=32)
        assert report.completed == 32.0

    def test_telemetry_spans_and_metrics(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        tracer = Tracer()
        metrics = MetricsRegistry()
        report = simulator.run(
            batch=64, scenario=build_scenario("rack_power_loss", topology),
            tracer=tracer, metrics=metrics)
        names = {span.name for span in tracer.spans}
        assert {"dispatch", "shard", "detection_window", "recovery_shard",
                "fleet_campaign"} <= names
        instant_names = {instant.name for instant in tracer.instants}
        assert {"instance_failure", "failure_detected",
                "reshard"} <= instant_names
        assert metrics.get("fleet/goodput").value == report.goodput
        assert (metrics.get("fleet/reshards").value
                == float(report.reshards))

    def test_spontaneous_failures_from_fault_model(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(
            topology,
            fault_model=FaultModel(FaultRates(instance_failure=0.5),
                                   seed=3))
        report = simulator.run(batch=64)
        assert report.failures > 0
        assert report.completed > 0.0

    def test_report_summary_mentions_key_numbers(self):
        report = tiny_simulator().run(batch=32)
        summary = report.summary()
        assert "goodput=" in summary and "availability=" in summary


class TestCrossModelInvariants:
    """Where two models describe the same run, they must agree.

    The paper's four instances behind one host are a 1-rack, 1-host,
    4-instance fleet.  Calibrated on its own shard (``reference_batch =
    batch // 4``) the fleet schedules exactly the shard that
    :class:`ProSESystem` schedules when each instance gets the default
    host's slots.
    """

    @staticmethod
    def paper_system(batch, seq_len):
        topology = build_fleet(racks=1, hosts_per_rack=1,
                               instances_per_host=4)
        fleet = FleetSimulator(topology, model_config=TINY,
                               seq_len=seq_len,
                               reference_batch=batch // 4)
        system = ProSESystem(instances=4,
                             host=HostModel(slots=4 * HostModel().slots))
        return fleet, fleet.run(batch=batch), system.simulate(
            TINY, batch=batch, seq_len=seq_len)

    @pytest.mark.parametrize("batch, seq_len",
                             [(8, 64), (16, 128), (32, 128)])
    def test_fault_free_fleet_matches_system_shards(self, batch, seq_len):
        fleet, report, system = self.paper_system(batch, seq_len)
        assert len(report.per_instance) == 4
        for outcome in report.per_instance:
            assert outcome.allocated == batch // 4
            dispatch = fleet.scheduler.dispatch_seconds(
                outcome.instance_id, outcome.allocated)
            compute = outcome.finish_seconds - dispatch
            assert compute == pytest.approx(system.makespan_seconds,
                                            rel=1e-12)

    @pytest.mark.parametrize("batch, seq_len", [(8, 64), (32, 128)])
    def test_energy_is_power_times_time_in_both_models(self, batch,
                                                      seq_len):
        fleet, report, system = self.paper_system(batch, seq_len)
        accelerator = power_report(best_perf()).accelerator_power_w
        busy = sum(
            outcome.finish_seconds - fleet.scheduler.dispatch_seconds(
                outcome.instance_id, outcome.allocated)
            for outcome in report.per_instance)
        assert report.energy_joules == pytest.approx(
            HOST_POWER_WATTS * report.makespan_seconds
            + accelerator * busy, rel=1e-12)
        # The fleet also pays the host through the fabric dispatch; the
        # rest is the system's power over its makespan.
        dispatch = report.makespan_seconds - system.makespan_seconds
        assert (report.energy_joules - HOST_POWER_WATTS * dispatch
                == pytest.approx(system.system_power_watts
                                 * system.makespan_seconds, rel=1e-12))

    def test_schedule_energy_bounded_by_power_times_makespan(self):
        schedule = cached_schedule(best_perf(), TINY, batch=8, seq_len=128)
        energy = energy_report(schedule, best_perf())
        makespan = schedule.makespan_seconds
        assert energy.host_joules == HOST_POWER_WATTS * makespan
        assert 0.0 < energy.total_joules <= (
            power_report(best_perf()).system_power_w * makespan)

    def test_nominal_campaign_is_the_sum_of_its_cached_batches(self):
        config = protein_bert_tiny(max_position=2048)
        workload = screening_campaign(library_size=48, seed=4)
        simulator = CampaignSimulator(model_config=config, max_batch=8)
        report = simulator.run_on_prose(workload)
        expected = 0.0
        for length, batch in bucket_batches(workload, simulator.buckets,
                                            max_batch=simulator.max_batch):
            expected += cached_schedule(simulator.hardware, config,
                                        batch=batch,
                                        seq_len=length).makespan_seconds
        assert report.total_seconds == expected
        assert report.total_energy_joules == (
            expected * power_report(simulator.hardware).system_power_w)

    def test_trace_rollup_totals_match_schedule_result(self):
        hardware = best_perf()
        tracer = Tracer()
        result = Orchestrator(hardware).run(TINY, batch=4, seq_len=64,
                                            tracer=tracer)
        rollup = build_rollup(tracer)
        makespan = result.makespan_seconds
        assert rollup["root_seconds"] == makespan
        classes = rollup["classes"]
        assert classes["host"] == pytest.approx(
            result.host_utilization * HostModel().slots * makespan,
            rel=1e-12)
        assert classes["link"] == pytest.approx(
            sum(result.channel_utilization.values()) * makespan, rel=1e-12)
        arrays = {group.array_type: 0 for group in hardware.groups}
        for group in hardware.groups:
            arrays[group.array_type] += group.count
        assert classes["array"] == pytest.approx(
            sum(result.array_utilization[array_type] * count * makespan
                for array_type, count in arrays.items()), rel=1e-12)
        dispatches = sum(row["count"] for row in rollup["spans"]
                         if row["category"] == "exec")
        assert dispatches == result.total_dispatches
