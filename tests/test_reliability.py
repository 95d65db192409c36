"""Tests for fault injection, ABFT detection, and degraded-mode recovery."""

import numpy as np
import pytest

from repro.arch.accelerated_model import AcceleratedProteinBert
from repro.arch.config import best_perf
from repro.core.engine import ProSEEngine
from repro.fleet import ChaosEvent, ChaosScenario, FleetSimulator, build_fleet
from repro.fleet.scenarios import RECOVER
from repro.model import ProteinBert, protein_bert_tiny
from repro.model.tensors import to_bfloat16
from repro.physical import power_report
from repro.proteins.workloads import Workload, screening_campaign
from repro.reliability import (
    FaultModel,
    FaultRates,
    HeartbeatConfig,
    RetryPolicy,
    detect_corrupted_columns,
)
from repro.sched.host import HOST_POWER_WATTS, HostModel
from repro.system import (
    CampaignReport,
    CampaignSimulator,
    ProSESystem,
)
from repro.telemetry import Tracer

TINY = protein_bert_tiny(num_layers=2, hidden_size=64, num_heads=4,
                         intermediate_size=128)
SERVING_CONFIG = protein_bert_tiny(num_layers=2, hidden_size=128,
                                   num_heads=4, intermediate_size=512,
                                   max_position=2048)


@pytest.fixture(scope="module")
def tiny_model():
    return ProteinBert(TINY, seed=9)


@pytest.fixture(scope="module")
def token_ids():
    rng = np.random.default_rng(0)
    return rng.integers(5, 25, size=(2, 12))


class TestFaultRates:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultRates(tile_bitflip=1.5)
        with pytest.raises(ValueError):
            FaultRates(batch_failure=-0.1)

    def test_rejects_bad_slowdown(self):
        with pytest.raises(ValueError):
            FaultRates(straggler_slowdown=0.5)

    def test_inert_by_default(self):
        assert not FaultModel().active
        assert FaultModel(FaultRates(), seed=3).active is False
        assert FaultModel(targeted_instance_failures=(0,)).active


class TestAbftDetection:
    def test_clean_result_not_flagged(self):
        rng = np.random.default_rng(1)
        a = to_bfloat16(rng.normal(size=(48, 96)).astype(np.float32))
        b = to_bfloat16(rng.normal(size=(96, 48)).astype(np.float32))
        assert not detect_corrupted_columns(a, b, a @ b).any()

    def test_large_flip_detected(self):
        rng = np.random.default_rng(2)
        a = to_bfloat16(rng.normal(size=(16, 8)).astype(np.float32))
        b = to_bfloat16(rng.normal(size=(8, 16)).astype(np.float32))
        result = a @ b
        corrupted = result.copy()
        corrupted[3, 5] += 100.0  # far beyond any rounding bound
        flags = detect_corrupted_columns(a, b, corrupted)
        assert flags[5]
        assert flags.sum() == 1

    def test_nonfinite_always_detected(self):
        rng = np.random.default_rng(3)
        a = to_bfloat16(rng.normal(size=(8, 8)).astype(np.float32))
        b = to_bfloat16(rng.normal(size=(8, 8)).astype(np.float32))
        corrupted = (a @ b).copy()
        corrupted[0, 0] = np.inf
        assert detect_corrupted_columns(a, b, corrupted)[0]


class TestComputeFaultInjection:
    def test_zero_rate_bit_identical(self, tiny_model, token_ids):
        clean = AcceleratedProteinBert(tiny_model, array_size=8)
        wrapped = AcceleratedProteinBert(tiny_model, array_size=8,
                                         fault_model=FaultModel(seed=1))
        assert np.array_equal(clean.forward(token_ids),
                              wrapped.forward(token_ids))

    def test_seeded_injection_reproducible(self, tiny_model, token_ids):
        rates = FaultRates(tile_bitflip=0.02, lut_bitflip=0.02)

        def run():
            accelerated = AcceleratedProteinBert(
                tiny_model, array_size=8,
                fault_model=FaultModel(rates, seed=7))
            out = accelerated.forward(token_ids)
            return out, accelerated.fault_stats

        first, first_stats = run()
        second, second_stats = run()
        assert np.array_equal(first, second)
        assert first_stats == second_stats

    def test_detected_plus_silent_covers_injected(self, tiny_model,
                                                  token_ids):
        fault_model = FaultModel(
            FaultRates(tile_bitflip=0.02, lut_bitflip=0.02), seed=7)
        accelerated = AcceleratedProteinBert(tiny_model, array_size=8,
                                             fault_model=fault_model)
        accelerated.forward(token_ids)
        stats = accelerated.fault_stats
        assert stats.injected > 0
        assert stats.detected + stats.silent == stats.injected
        assert stats.gemm_flips + stats.lut_flips == stats.injected
        # LUT flips are always silent; some GEMM flips must be caught.
        assert stats.detected > 0
        assert 0.0 <= stats.silent_error_rate <= 1.0

    def test_reset_replays_fault_sequence(self, tiny_model, token_ids):
        fault_model = FaultModel(FaultRates(tile_bitflip=0.05), seed=4)
        accelerated = AcceleratedProteinBert(tiny_model, array_size=8,
                                             fault_model=fault_model)
        first = accelerated.forward(token_ids)
        stats = fault_model.stats
        fault_model.reset()
        second = accelerated.forward(token_ids)
        assert np.array_equal(first, second)
        assert fault_model.stats == stats


def paper_fleet(instances=4, batch=16, seq_len=64, **kwargs):
    """The paper's system as a 1-rack, 1-host fleet of ``instances``.

    Each instance calibrates on its own shard's schedule.
    """
    topology = build_fleet(racks=1, hosts_per_rack=1,
                           instances_per_host=instances)
    return FleetSimulator(topology, model_config=TINY, seq_len=seq_len,
                          reference_batch=batch // instances, **kwargs)


def failure_fraction(seed, instances, targets):
    """Where a targeted failure strikes, as a fraction of nominal."""
    probe = FaultModel(seed=seed, targeted_instance_failures=targets)
    probe.failed_instances(instances)
    return probe.failure_fraction()


class TestSystemDegradation:
    def test_zero_rate_bit_identical(self):
        clean = paper_fleet().run(batch=16)
        inert = paper_fleet(fault_model=FaultModel(seed=3)).run(batch=16)
        assert inert == clean
        assert inert.makespan_seconds == inert.nominal_makespan_seconds
        assert inert.availability == 1.0
        assert inert.reshards == 0 and inert.failures == 0

    def test_instance_failure_resharded_and_reaccounted(self):
        clean = paper_fleet(batch=32).run(batch=32)
        degraded = paper_fleet(
            batch=32,
            fault_model=FaultModel(seed=11, targeted_instance_failures=(1,))
        ).run(batch=32)
        # The full batch completes via re-sharding across survivors.
        assert degraded.completed == pytest.approx(32.0)
        assert degraded.shed == 0.0
        assert degraded.failures == 1 and degraded.detections == 1
        dead = degraded.per_instance[1]
        assert dead.final_state == "dead"
        assert degraded.reshards == 3
        assert degraded.resharded_inferences == pytest.approx(
            dead.allocated - dead.completed)
        assert degraded.availability < 1.0
        assert degraded.recovery_seconds > 0.0
        assert degraded.makespan_seconds > clean.makespan_seconds
        assert degraded.energy_joules > clean.energy_joules

    def test_same_seed_identical_reports(self):
        def run():
            fault_model = FaultModel(
                FaultRates(instance_failure=0.4, link_transient=0.01),
                seed=13)
            return paper_fleet(fault_model=fault_model).run(batch=16)

        first, second = run(), run()
        assert first.failures > 0
        assert first == second

    def test_link_transients_delay_and_retry(self):
        fault_model = FaultModel(FaultRates(link_transient=0.05), seed=2)
        report = paper_fleet(instances=2,
                             fault_model=fault_model).run(batch=16)
        assert report.link_retransmissions > 0
        assert report.makespan_seconds > report.nominal_makespan_seconds
        assert report.availability < 1.0

    def test_total_outage_restarts_and_completes(self):
        # Both instances die; the lost work waits as backlog until a
        # scripted restart drains it.
        restart = ChaosScenario(
            name="restart", description="instance 0 restarts",
            events=(ChaosEvent(1.5, RECOVER, "instance:r0h0s0"),))
        fault_model = FaultModel(seed=5, targeted_instance_failures=(0, 1))
        clean = paper_fleet(instances=2).run(batch=16)
        report = paper_fleet(instances=2, fault_model=fault_model).run(
            batch=16, scenario=restart)
        assert report.failures == 2
        assert report.completed == pytest.approx(16.0)
        assert report.shed == 0.0
        assert report.availability < 1.0
        assert report.energy_joules > clean.energy_joules


class TestServingRetries:
    @pytest.fixture(scope="class")
    def workload(self):
        return screening_campaign(library_size=32, seed=4)

    def test_zero_rate_bit_identical(self, workload):
        clean = CampaignSimulator(model_config=SERVING_CONFIG,
                                  max_batch=8).run_on_prose(workload)
        wrapped = CampaignSimulator(
            model_config=SERVING_CONFIG, max_batch=8,
            fault_model=FaultModel(seed=6)).run_on_prose(workload)
        assert wrapped.total_seconds == clean.total_seconds
        assert wrapped.total_energy_joules == clean.total_energy_joules
        assert wrapped.sequences == clean.sequences
        assert wrapped.reliability is None

    def test_failures_retried_with_backoff(self, workload):
        fault_model = FaultModel(FaultRates(batch_failure=0.5), seed=8)
        report = CampaignSimulator(
            model_config=SERVING_CONFIG, max_batch=8,
            fault_model=fault_model,
            retry_policy=RetryPolicy(
                max_retries=5, backoff_base_seconds=0.0005,
                backoff_cap_seconds=0.01)).run_on_prose(workload)
        reliability = report.reliability
        assert reliability is not None
        assert reliability.retries > 0
        assert reliability.availability < 1.0
        assert reliability.wasted_seconds > 0.0
        assert reliability.wasted_joules > 0.0
        # Every sequence either completed or was dropped.
        assert report.sequences + reliability.dropped == len(workload)

    def test_straggler_killed_at_deadline(self, workload):
        # Slowdown 10x with deadline 2x: stragglers are always killed
        # and rerun rather than awaited.
        fault_model = FaultModel(
            FaultRates(straggler=0.5, straggler_slowdown=10.0), seed=9)
        report = CampaignSimulator(
            model_config=SERVING_CONFIG, max_batch=8,
            fault_model=fault_model,
            retry_policy=RetryPolicy(
                straggler_deadline_multiple=2.0,
                backoff_base_seconds=0.0005,
                backoff_cap_seconds=0.01)).run_on_prose(workload)
        assert report.reliability.stragglers > 0
        assert report.reliability.retries >= report.reliability.stragglers

    def test_same_seed_identical_reports(self, workload):
        def run():
            fault_model = FaultModel(
                FaultRates(batch_failure=0.3, straggler=0.2), seed=10)
            return CampaignSimulator(
                model_config=SERVING_CONFIG, max_batch=8,
                fault_model=fault_model,
                retry_policy=RetryPolicy(
                    backoff_base_seconds=0.0005,
                    backoff_cap_seconds=0.01)).run_on_prose(workload)

        assert run().reliability == run().reliability

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base_seconds=0.1,
                             backoff_multiplier=2.0,
                             backoff_cap_seconds=0.3)
        assert policy.backoff_seconds(0) == pytest.approx(0.1)
        assert policy.backoff_seconds(1) == pytest.approx(0.2)
        assert policy.backoff_seconds(2) == pytest.approx(0.3)
        assert policy.backoff_seconds(10) == pytest.approx(0.3)


class TestFaultCampaignExperiment:
    def test_runs_and_formats(self):
        from repro.experiments import fault_campaign

        result = fault_campaign.run(fault_rates=(0.0, 0.2), seed=3,
                                    library_size=16)
        assert len(result.serving_reports) == 2
        assert result.serving_reports[0].availability == 1.0
        assert result.failure_scenario.availability < 1.0
        assert (result.failure_scenario.energy_joules
                > result.fault_free_energy_joules)
        text = fault_campaign.format_result(result)
        assert "instance-failure scenario" in text
        assert "fault rate" in text


class TestSatelliteGuards:
    def test_empty_campaign_report_returns_zero(self):
        report = CampaignReport(platform="p", total_seconds=0.0,
                                total_energy_joules=0.0, sequences=0,
                                padded_tokens=0, useful_tokens=0)
        assert report.throughput == 0.0
        assert report.padding_waste == 0.0

    def test_empty_workload_campaign(self):
        empty = Workload(name="empty", items=())
        report = CampaignSimulator(
            model_config=SERVING_CONFIG).run_on_prose(empty)
        assert report.sequences == 0
        assert report.throughput == 0.0
        assert report.padding_waste == 0.0

    def test_engine_rejects_nonsense_arguments(self):
        engine = ProSEEngine(model_config=TINY)
        with pytest.raises(ValueError, match="batch"):
            engine.simulate(batch=0)
        with pytest.raises(ValueError, match="seq_len"):
            engine.simulate(batch=4, seq_len=-1)
        with pytest.raises(ValueError, match="threads"):
            engine.simulate(batch=4, seq_len=64, threads=0)

    def test_orchestrator_rejects_nonsense_arguments(self):
        from repro.arch.config import best_perf
        from repro.sched.orchestrator import Orchestrator

        orchestrator = Orchestrator(best_perf())
        with pytest.raises(ValueError, match="seq_len"):
            orchestrator.run(TINY, batch=4, seq_len=0)
        with pytest.raises(ValueError, match="threads"):
            orchestrator.run(TINY, batch=4, seq_len=64, threads=-2)

    def test_system_rejects_nonsense_seq_len(self):
        with pytest.raises(ValueError, match="seq_len"):
            ProSESystem(instances=2).simulate(TINY, batch=4, seq_len=0)


class TestDeriveTaskSeed:
    def test_pure_function_of_key(self):
        from repro.reliability import derive_task_seed

        assert derive_task_seed(7, 0.05) == derive_task_seed(7, 0.05)
        assert derive_task_seed(7, 0.05) != derive_task_seed(8, 0.05)
        assert derive_task_seed(7, 0.05) != derive_task_seed(7, 0.06)
        assert derive_task_seed(7, "a") != derive_task_seed(7, "b")

    def test_valid_numpy_seed_range(self):
        from repro.reliability import derive_task_seed

        for key in (0.0, 1e-9, "rack_power_loss", (1, 2)):
            seed = derive_task_seed(2022, key)
            assert 0 <= seed < 2 ** 63
            FaultModel(seed=seed)  # accepted by the RNG constructor

    def test_decorrelates_fault_sequences(self):
        from repro.reliability import derive_task_seed

        draws = []
        for rate in (0.1, 0.2):
            model = FaultModel(FaultRates(instance_failure=0.5),
                               seed=derive_task_seed(5, rate))
            draws.append((model.failed_instances(16),
                          model.failure_fraction()))
        assert draws[0] != draws[1]


class TestFaultCampaignWorkerParity:
    def test_bit_identical_across_worker_counts(self):
        from repro.experiments import fault_campaign

        serial = fault_campaign.run(fault_rates=(0.0, 0.1, 0.2), seed=3,
                                    library_size=16, workers=1)
        parallel = fault_campaign.run(fault_rates=(0.0, 0.1, 0.2), seed=3,
                                      library_size=16, workers=4)
        assert serial == parallel

    def test_point_results_independent_of_sweep_composition(self):
        from repro.experiments import fault_campaign

        full = fault_campaign.run(fault_rates=(0.0, 0.1, 0.2), seed=3,
                                  library_size=16)
        alone = fault_campaign.run(fault_rates=(0.2,), seed=3,
                                   library_size=16)
        assert full.serving_reports[2] == alone.serving_reports[0]


class TestPolicyInterplayValidation:
    def test_accepts_sane_defaults(self):
        from repro.reliability import validate_policy_interplay

        validate_policy_interplay(RetryPolicy(), HeartbeatConfig(), 1.0)

    def test_rejects_deadline_shorter_than_first_backoff(self):
        from repro.reliability import validate_policy_interplay

        retry = RetryPolicy(backoff_base_seconds=10.0,
                            backoff_cap_seconds=10.0,
                            straggler_deadline_multiple=2.0)
        with pytest.raises(ValueError, match="straggler deadline"):
            validate_policy_interplay(retry, HeartbeatConfig(), 1.0)
        # The same knobs are fine at a longer nominal time scale.
        validate_policy_interplay(retry, HeartbeatConfig(), 100.0)

    def test_rejects_detection_beyond_deadline(self):
        from repro.reliability import validate_policy_interplay

        with pytest.raises(ValueError, match="detection window"):
            validate_policy_interplay(
                RetryPolicy(straggler_deadline_multiple=2.0),
                HeartbeatConfig(interval_fraction=1.0), 1.0)

    def test_rejects_nonpositive_nominal(self):
        from repro.reliability import validate_policy_interplay

        with pytest.raises(ValueError, match="nominal_seconds"):
            validate_policy_interplay(RetryPolicy(), HeartbeatConfig(),
                                      0.0)

    def test_serving_layer_rejects_conflicting_knobs(self):
        from repro.proteins.workloads import screening_campaign

        workload = screening_campaign(library_size=8, seed=1)
        simulator = CampaignSimulator(
            model_config=SERVING_CONFIG, max_batch=8,
            fault_model=FaultModel(FaultRates(batch_failure=0.2), seed=1),
            retry_policy=RetryPolicy(backoff_base_seconds=1e6,
                                     backoff_cap_seconds=1e6))
        with pytest.raises(ValueError, match="straggler deadline"):
            simulator.run_on_prose(workload)

    def test_serving_layer_skips_check_when_fault_free(self):
        from repro.proteins.workloads import screening_campaign

        workload = screening_campaign(library_size=8, seed=1)
        simulator = CampaignSimulator(
            model_config=SERVING_CONFIG, max_batch=8,
            retry_policy=RetryPolicy(backoff_base_seconds=1e6,
                                     backoff_cap_seconds=1e6))
        report = simulator.run_on_prose(workload)  # no faults: no check
        assert report.sequences == 8


class TestSimulateWithFaultsEdges:
    def test_all_instances_killed_sheds_lost_work(self):
        fault_model = FaultModel(seed=5,
                                 targeted_instance_failures=(0, 1, 2, 3))
        report = paper_fleet(fault_model=fault_model).run(batch=16)
        assert report.failures == 4
        assert all(outcome.final_state == "dead"
                   for outcome in report.per_instance)
        # Early failures re-shard onto instances that die later; the
        # last one leaves no survivor, and its lost work is shed.
        assert report.shed > 0.0
        assert report.completed < 16.0
        assert report.completed + report.shed == pytest.approx(16.0)

    def test_recovery_on_exact_detection_boundary(self):
        # With a zero-length heartbeat window the lost work is re-sharded
        # at the failure instant itself.
        fault_model = FaultModel(seed=9, targeted_instance_failures=(1,))
        simulator = paper_fleet(batch=32, fault_model=fault_model,
                                heartbeat=HeartbeatConfig(
                                    interval_fraction=0.0))
        tracer = Tracer()
        report = simulator.run(batch=32, tracer=tracer)
        instants = {instant.name: instant.ts
                    for instant in tracer.instants}
        fail_at = (failure_fraction(9, 4, (1,))
                   * report.nominal_makespan_seconds)
        assert instants["instance_failure"] == fail_at
        assert instants["failure_detected"] == fail_at
        assert instants["reshard"] == fail_at
        assert report.completed == pytest.approx(32.0)
        assert report.reshards == 3

    def test_large_detection_window_delays_recovery(self):
        # Detection two nominal makespans after the failure: the three
        # survivors finish their shards and idle until then, and only
        # the host is charged for the gap.
        fault_model = FaultModel(seed=9, targeted_instance_failures=(1,))
        heartbeat = HeartbeatConfig(interval_fraction=2.0 / 3.0)
        simulator = paper_fleet(batch=32, fault_model=fault_model,
                                heartbeat=heartbeat)
        report = simulator.run(batch=32)
        nominal = report.nominal_makespan_seconds
        detect_at = (failure_fraction(9, 4, (1,)) * nominal
                     + heartbeat.detection_seconds(nominal))
        assert detect_at > nominal
        rate = simulator.scheduler.rates["r0h0s1"]
        dead = report.per_instance[1]
        share = (dead.allocated - dead.completed) / 3.0
        assert report.makespan_seconds == pytest.approx(
            detect_at + simulator.scheduler.dispatch_seconds("r0h0s0", share)
            + share / rate, rel=1e-12)
        accelerator = power_report(best_perf()).accelerator_power_w
        assert report.energy_joules == pytest.approx(
            HOST_POWER_WATTS * report.makespan_seconds
            + accelerator * 32.0 / rate, rel=1e-9)

    def test_zero_fault_rate_report_parity_with_plain_simulate(self):
        system = ProSESystem(instances=4,
                             host=HostModel(slots=4 * HostModel().slots))
        base = system.simulate(TINY, batch=16, seq_len=64)
        simulator = paper_fleet(
            fault_model=FaultModel(FaultRates(), seed=123))
        report = simulator.run(batch=16)
        assert report == paper_fleet().run(batch=16)
        for outcome in report.per_instance:
            dispatch = simulator.scheduler.dispatch_seconds(
                outcome.instance_id, outcome.allocated)
            compute = outcome.finish_seconds - dispatch
            assert compute == pytest.approx(base.makespan_seconds,
                                            rel=1e-12)
        assert report.availability == 1.0
        assert report.goodput == 16 / report.makespan_seconds
        assert report.completed == 16.0 and report.shed == 0.0
        assert report.reshards == 0 and report.recovery_seconds == 0.0
