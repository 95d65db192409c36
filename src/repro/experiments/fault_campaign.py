"""Fault-injection campaign: availability and goodput vs fault rate.

The deployment story of Section 3.2 (four ProSE instances serving
drug-discovery campaigns) only holds up if the system tolerates faults.
This experiment sweeps a seeded fault rate across the serving layer —
each rate applied simultaneously to batch failures, stragglers, and
link transients — and reports the availability/goodput curve, then
exercises the multi-instance recovery path: the paper's four instances
behind one host run as a 1-rack, 1-host, 4-instance fleet, one instance
dies mid-batch, and the heartbeat monitor's detection triggers a
re-shard of its lost work onto the survivors.

Everything is deterministic for a given seed, so the emitted curve is a
regression artifact like any paper figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..fleet import FleetReport, FleetSimulator, build_fleet
from ..model.config import BertConfig, protein_bert_tiny
from ..parallel.executor import SweepExecutor
from ..proteins.workloads import Workload, screening_campaign
from ..reliability import (
    FaultModel,
    FaultRates,
    ReliabilityReport,
    RetryPolicy,
    derive_task_seed,
)
from ..system.serving import CampaignSimulator
from ..telemetry import MetricsRegistry

#: Fault rates swept over the serving campaign.
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.2)

#: Backoff scaled to the simulated (milliseconds-long) batch makespans.
DEFAULT_RETRY_POLICY = RetryPolicy(backoff_base_seconds=0.002,
                                   backoff_cap_seconds=0.05)


@dataclass(frozen=True)
class FaultCampaignResult:
    """Availability/goodput curve plus the instance-failure scenario.

    ``fault_free_energy_joules`` is what the failure scenario's batch
    costs on the same fleet with no failure.
    """

    fault_rates: Tuple[float, ...]
    serving_reports: Tuple[ReliabilityReport, ...]
    failure_scenario: FleetReport
    fault_free_energy_joules: float
    seed: int


def _serving_report(payload: Tuple[float, int, BertConfig, Workload,
                                   RetryPolicy],
                    metrics: Optional[MetricsRegistry] = None
                    ) -> ReliabilityReport:
    """One fault-rate point of the sweep (module-level for pickling).

    Each point builds its own :class:`FaultModel` whose seed is derived
    from the *rate* itself, so the result for a point is a pure function
    of what the point is — deterministic, independent of sweep order,
    and bit-identical however the sweep is partitioned over workers.
    """
    rate, seed, config, workload, policy = payload
    fault_model = FaultModel(
        FaultRates(batch_failure=rate, straggler=rate,
                   link_transient=rate / 10.0),
        seed=derive_task_seed(seed, rate))
    simulator = CampaignSimulator(model_config=config, max_batch=8,
                                  fault_model=fault_model,
                                  retry_policy=policy)
    report = simulator.run_on_prose(workload, metrics=metrics)
    return (report.reliability
            or ReliabilityReport(goodput=report.throughput))


def run(fault_rates: Tuple[float, ...] = DEFAULT_FAULT_RATES,
        seed: int = 2022, library_size: int = 96,
        retry_policy: Optional[RetryPolicy] = None,
        workers: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None) -> FaultCampaignResult:
    """Sweep fault rates over a screening campaign; kill one instance.

    Args:
        fault_rates: per-event probabilities applied to batch failure,
            straggling, and link transients simultaneously.
        seed: root seed for every fault model in the sweep.
        library_size: antibody variants in the screening workload.
        retry_policy: serving retry/backoff knobs.
        workers: fan the rate points out over N processes; ``None`` reads
            ``REPRO_SWEEP_WORKERS`` (default 1, the serial path).
        metrics: optional registry; when given, every rate point runs
            instrumented (serially — the instrumented path does not fan
            out) and its serving counters/histograms merge in under a
            ``rate<rate>/`` prefix.
    """
    config = protein_bert_tiny(num_layers=2, hidden_size=128, num_heads=4,
                               intermediate_size=512, max_position=2048)
    workload = screening_campaign(library_size=library_size, seed=seed)
    policy = retry_policy or DEFAULT_RETRY_POLICY
    payloads = [(rate, seed, config, workload, policy)
                for rate in fault_rates]
    if metrics is not None:
        serving_reports = []
        for payload in payloads:
            child = MetricsRegistry(f"rate{payload[0]:g}")
            serving_reports.append(_serving_report(payload, metrics=child))
            metrics.merge(child, prefix=f"rate{payload[0]:g}")
    else:
        executor = SweepExecutor(SweepExecutor.resolve_workers(workers))
        serving_reports = executor.map(_serving_report, payloads,
                                       label="fault-campaign")

    # Deterministically kill instance 1 of 4 mid-batch: the recovery
    # path re-shards its lost inferences across the three survivors.
    # Each instance calibrates on its own shard's schedule.
    topology = build_fleet(racks=1, hosts_per_rack=1, instances_per_host=4)
    batch = 32

    def fleet(fault_model: FaultModel) -> FleetSimulator:
        return FleetSimulator(topology, model_config=config,
                              fault_model=fault_model, seq_len=128,
                              reference_batch=batch // 4)

    scenario = fleet(FaultModel(seed=seed, targeted_instance_failures=(1,))
                     ).run(batch=batch)
    fault_free = fleet(FaultModel()).run(batch=batch)
    return FaultCampaignResult(
        fault_rates=tuple(fault_rates),
        serving_reports=tuple(serving_reports),
        failure_scenario=scenario,
        fault_free_energy_joules=fault_free.energy_joules,
        seed=seed)


def format_result(result: FaultCampaignResult) -> str:
    """The availability/goodput curve and the failure-scenario account."""
    lines = [f"{'fault rate':>10s} {'avail':>7s} {'goodput':>9s} "
             f"{'retries':>7s} {'dropped':>7s} {'wasted ms':>9s}"]
    for rate, report in zip(result.fault_rates, result.serving_reports):
        lines.append(f"{rate:10.3f} {report.availability:7.4f} "
                     f"{report.goodput:9.1f} {report.retries:7d} "
                     f"{report.dropped:7d} "
                     f"{report.wasted_seconds * 1e3:9.2f}")
    scenario = result.failure_scenario
    survivors = sum(1 for outcome in scenario.per_instance
                    if outcome.final_state != "dead")
    extra = scenario.energy_joules - result.fault_free_energy_joules
    lines.append("")
    lines.append(
        f"instance-failure scenario ({scenario.failures} of "
        f"{len(scenario.per_instance)} killed): batch {scenario.batch}, "
        f"{scenario.completed:.1f} completed on {survivors} survivors via "
        f"{scenario.reshards} re-shards")
    lines.append(
        f"  availability {scenario.availability:.4f}, "
        f"goodput {scenario.goodput:.1f} inf/s, "
        f"recovery {scenario.recovery_seconds * 1e3:.3f} ms, "
        f"energy {scenario.energy_joules * 1e3:.2f} mJ vs "
        f"fault-free {result.fault_free_energy_joules * 1e3:.2f} mJ "
        f"(+{extra * 1e3:.2f} mJ)")
    return "\n".join(lines)
