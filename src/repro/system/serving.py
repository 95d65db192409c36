"""Campaign/serving simulator: mixed-length workloads on ProSE vs GPU.

Drives a :class:`~repro.proteins.workloads.Workload` through bucketed
padded batches on both a simulated ProSE instance and a commodity
baseline, producing end-to-end campaign time, energy, and the padding
waste of the chosen batching policy — the deployment-level view of the
paper's drug-discovery motivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..arch.config import HardwareConfig, best_perf
from ..baselines.gpu import a100
from ..baselines.roofline import RooflineDevice
from ..model.config import BertConfig, protein_bert_base
from ..monitor.engine import Monitor, SloOutcome
from ..parallel.memo import cached_schedule
from ..physical.power import power_report
from ..proteins.workloads import Workload, bucket_batches
from ..reliability.faults import FaultModel
from ..reliability.policy import (
    HeartbeatConfig,
    RetryPolicy,
    validate_policy_interplay,
)
from ..reliability.report import ReliabilityReport
from ..sched.orchestrator import ScheduleResult
from ..telemetry import MetricsRegistry, Tracer

#: Default padding buckets (token lengths after the 2 special tokens).
DEFAULT_BUCKETS: Tuple[int, ...] = (64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class CampaignReport:
    """End-to-end cost of one workload campaign on one platform.

    Attributes:
        platform: "ProSE <config>" or the baseline name.
        total_seconds: campaign wall-clock (batches run back-to-back).
        total_energy_joules: time × platform power.
        sequences: inferences completed.
        padded_tokens: tokens processed including padding.
        useful_tokens: tokens the workload actually contains.
        reliability: fault/retry accounting when the campaign ran under
            an active fault model; None on fault-free runs.
        slo: service-impact summary (alerts fired, worst burn rate,
            budget remaining) when the campaign carried a live monitor;
            None otherwise.
    """

    platform: str
    total_seconds: float
    total_energy_joules: float
    sequences: int
    padded_tokens: int
    useful_tokens: int
    reliability: Optional[ReliabilityReport] = None
    slo: Optional[SloOutcome] = None

    @property
    def throughput(self) -> float:
        """Inferences per second; 0.0 for an empty campaign."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.sequences / self.total_seconds

    @property
    def padding_waste(self) -> float:
        """Fraction of processed tokens that were padding (0.0 if none)."""
        if self.padded_tokens <= 0:
            return 0.0
        return 1.0 - self.useful_tokens / self.padded_tokens


class CampaignSimulator:
    """Runs bucketed workloads through ProSE and baseline models.

    Args:
        model_config: the encoder the campaign scores sequences with.
        hardware: ProSE instance configuration.
        buckets: padded-length buckets for batching.
        max_batch: sequences per padded batch.
        fault_model: optional seeded fault injector; batch attempts may
            then fail (retried with capped exponential backoff) or
            straggle (killed and rerun past the deadline multiple), and
            the resulting :class:`~repro.reliability.ReliabilityReport`
            is attached to the campaign report.
        retry_policy: backoff/deadline knobs; defaults apply when a
            fault model is given without a policy.  Before any faulty
            batch runs they are checked against the default heartbeat
            window (see
            :func:`~repro.reliability.validate_policy_interplay`).
    """

    def __init__(self, model_config: Optional[BertConfig] = None,
                 hardware: Optional[HardwareConfig] = None,
                 buckets: Sequence[int] = DEFAULT_BUCKETS,
                 max_batch: int = 64,
                 fault_model: Optional[FaultModel] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.model_config = model_config or protein_bert_base()
        self.hardware = hardware or best_perf()
        self.buckets = tuple(buckets)
        self.max_batch = max_batch
        self.fault_model = fault_model
        self.retry_policy = retry_policy or RetryPolicy()
        self._prose_power = power_report(self.hardware).system_power_w

    def _batches(self, workload: Workload) -> List[Tuple[int, int]]:
        return bucket_batches(workload, self.buckets,
                              max_batch=self.max_batch)

    def _schedule(self, seq_len: int, batch: int) -> ScheduleResult:
        """The nominal batch schedule, memoized on its shape key.

        Campaigns revisit the same (bucket length, batch size) pairs over
        and over; the shape-keyed cache simulates each pair once.
        """
        return cached_schedule(self.hardware, self.model_config,
                               batch=batch, seq_len=seq_len)

    def run_on_prose(self, workload: Workload,
                     tracer: Optional[Tracer] = None,
                     metrics: Optional[MetricsRegistry] = None,
                     monitor: Optional[Monitor] = None
                     ) -> CampaignReport:
        """Simulate the campaign on the configured ProSE instance.

        Without an active fault model batches run back-to-back exactly
        as before (bit-identical accounting).  Under faults each batch
        is attempted until it succeeds, is dropped after
        ``retry_policy.max_retries`` re-attempts, or — when it straggles
        past the deadline multiple — is killed and rerun; all partial
        attempts, backoff waits, and straggler overruns are charged to
        the campaign clock and reported in the attached
        :class:`~repro.reliability.ReliabilityReport`.

        Args:
            workload: the sequence library to score.
            tracer: optional span tracer.  Each padded batch becomes a
                span on its bucket's track (pid ``serving``), with one
                child span per attempt/backoff and instant events for
                retries, straggler kills, and drops.
            metrics: optional registry accumulating the serving-latency
                histogram (p50/p95/p99 in the dump), sequence/token
                counters, and retry/straggler/drop counters.
            monitor: optional live monitor (see
                :func:`repro.monitor.serving_monitor`).  Each completed
                batch is one sample tick: queue depth, batch latency,
                and retry/drop counters land in the monitor's series,
                every batch feeds the latency and availability SLOs
                (served within ``latency_multiple x nominal`` = good),
                and alert rules run on the campaign clock.  The monitor
                only observes, so the campaign accounting stays
                bit-identical with and without one.
        """
        total_seconds = 0.0
        useful_seconds = 0.0
        wasted_seconds = 0.0
        padded_tokens = 0
        completed = 0
        retries = stragglers = failures = dropped = 0
        faulty = self.fault_model is not None and self.fault_model.active
        policy = self.retry_policy
        heartbeat = HeartbeatConfig()
        batches = self._batches(workload)
        if monitor is not None and batches:
            # The horizon is the fault-free campaign: every schedule here
            # is shape-memoized, so this pre-pass costs nothing extra.
            monitor.begin(sum(
                self._schedule(length, batch).makespan_seconds
                for length, batch in batches))
        for index, (length, batch) in enumerate(batches):
            schedule = self._schedule(length, batch)
            nominal = schedule.makespan_seconds
            if faulty:
                # Fail fast on knob combinations that could never make
                # progress at this batch's time scale (e.g. a straggler
                # deadline shorter than the first backoff step), instead
                # of silently retrying forever below.
                validate_policy_interplay(policy, heartbeat, nominal)
            padded_tokens += length * batch
            batch_start = total_seconds
            batch_name = f"batch{index}[len={length} n={batch}]"
            tid = f"bucket{length:05d}"

            def _attempt_span(start: float, end: float, category: str,
                              **args: object) -> None:
                if tracer is not None:
                    tracer.add_span(batch_name, start, end, pid="serving",
                                    tid=tid, category=category,
                                    seq_len=length, batch=batch, **args)

            def _monitor_tick(outcome: str) -> None:
                # Read-only observation at the batch's end; free
                # variables (total_seconds, completed, ...) are read at
                # call time, after the batch's accounting settled.
                if monitor is None:
                    return
                t = total_seconds
                latency = t - batch_start
                monitor.record(t, "serving/queue_depth",
                               float(len(batches) - index - 1))
                monitor.record(t, "serving/completed", float(completed))
                monitor.record(t, "serving/retries", float(retries))
                monitor.record(t, "serving/dropped", float(dropped))
                if outcome != "dropped":
                    monitor.record(t, "serving/batch_latency", latency)
                    threshold = monitor.latency_threshold(nominal)
                    if threshold is not None:
                        on_time = latency <= threshold
                        monitor.slo_event(
                            t, "latency",
                            good=float(batch) if on_time else 0.0,
                            bad=0.0 if on_time else float(batch))
                monitor.slo_event(
                    t, "availability",
                    good=0.0 if outcome == "dropped" else float(batch),
                    bad=float(batch) if outcome == "dropped" else 0.0)
                monitor.evaluate(t)

            if not faulty:
                total_seconds += nominal
                useful_seconds += nominal
                completed += batch
                _attempt_span(batch_start, total_seconds, "attempt")
                _attempt_span(batch_start, total_seconds, "batch",
                              outcome="ok", attempts=1,
                              nominal_seconds=nominal)
                if metrics is not None:
                    metrics.histogram(
                        "serving/batch_latency_seconds").observe(nominal)
                _monitor_tick("ok")
                continue
            attempt = 0
            outcome = "ok"
            while True:
                event = self.fault_model.batch_event()
                if event == "fail":
                    failures += 1
                    if monitor is not None:
                        monitor.mark(total_seconds, "fault", batch_name)
                    partial = (self.fault_model.attempt_fraction()
                               * nominal)
                    _attempt_span(total_seconds, total_seconds + partial,
                                  "failed", attempt=attempt)
                    total_seconds += partial
                    wasted_seconds += partial
                    if attempt >= policy.max_retries:
                        dropped += batch
                        outcome = "dropped"
                        if tracer is not None:
                            tracer.instant(
                                "batch_dropped", total_seconds,
                                pid="serving", tid=tid, category="fault",
                                batch=batch, attempts=attempt + 1)
                        break
                    backoff = policy.backoff_seconds(attempt)
                    _attempt_span(total_seconds, total_seconds + backoff,
                                  "backoff", attempt=attempt)
                    if tracer is not None:
                        tracer.instant("retry", total_seconds,
                                       pid="serving", tid=tid,
                                       category="fault", attempt=attempt)
                    total_seconds += backoff
                    wasted_seconds += backoff
                    retries += 1
                    attempt += 1
                    continue
                if event == "straggle":
                    if monitor is not None:
                        monitor.mark(total_seconds, "fault", batch_name)
                    slowdown = self.fault_model.rates.straggler_slowdown
                    deadline = (policy.straggler_deadline_multiple
                                * nominal)
                    if (slowdown * nominal > deadline
                            and attempt < policy.max_retries):
                        # Kill the straggler at the deadline and rerun.
                        _attempt_span(total_seconds,
                                      total_seconds + deadline,
                                      "straggle", attempt=attempt,
                                      killed=True)
                        if tracer is not None:
                            tracer.instant(
                                "straggler_killed",
                                total_seconds + deadline, pid="serving",
                                tid=tid, category="fault",
                                attempt=attempt)
                        total_seconds += deadline
                        wasted_seconds += deadline
                        stragglers += 1
                        retries += 1
                        attempt += 1
                        continue
                    # Tolerable straggle (or retries exhausted): wait it
                    # out; the overrun beyond nominal is waste.
                    _attempt_span(total_seconds,
                                  total_seconds + slowdown * nominal,
                                  "straggle", attempt=attempt,
                                  killed=False)
                    total_seconds += slowdown * nominal
                    useful_seconds += nominal
                    wasted_seconds += (slowdown - 1.0) * nominal
                    completed += batch
                    outcome = "straggled"
                    break
                _attempt_span(total_seconds, total_seconds + nominal,
                              "attempt", attempt=attempt)
                total_seconds += nominal
                useful_seconds += nominal
                completed += batch
                break
            _attempt_span(batch_start, total_seconds, "batch",
                          outcome=outcome, attempts=attempt + 1,
                          nominal_seconds=nominal)
            if metrics is not None and outcome != "dropped":
                metrics.histogram("serving/batch_latency_seconds").observe(
                    total_seconds - batch_start)
            _monitor_tick(outcome)
        if metrics is not None:
            metrics.counter("serving/sequences").inc(completed)
            metrics.counter("serving/padded_tokens").inc(padded_tokens)
            metrics.counter("serving/retries").inc(retries)
            metrics.counter("serving/stragglers").inc(stragglers)
            metrics.counter("serving/failures").inc(failures)
            metrics.counter("serving/dropped").inc(dropped)
            metrics.gauge("serving/campaign_seconds").set(total_seconds)
            metrics.gauge("serving/padding_waste").set(
                1.0 - (int(workload.lengths.sum()) / padded_tokens)
                if padded_tokens else 0.0)
        if tracer is not None:
            # End-to-end root span: the anchor trace analytics chains
            # critical paths from (batches run back-to-back on the
            # campaign clock, so the batch spans tile it exactly).
            tracer.add_span(
                "campaign.run", 0.0, total_seconds, pid="serving",
                tid="campaign", category="run",
                platform=f"ProSE {self.hardware.name}",
                batches=len(batches), sequences=completed,
                retries=retries, dropped=dropped)
        slo = None
        if monitor is not None and monitor.horizon_seconds is not None:
            slo = monitor.finalize(total_seconds).outcome()
        reliability = None
        if faulty:
            stats = self.fault_model.stats
            reliability = ReliabilityReport(
                availability=(useful_seconds / total_seconds
                              if total_seconds > 0 else 1.0),
                goodput=(completed / total_seconds
                         if total_seconds > 0 else 0.0),
                retries=retries,
                failures=failures,
                stragglers=stragglers,
                dropped=dropped,
                wasted_seconds=wasted_seconds,
                wasted_joules=wasted_seconds * self._prose_power,
                faults_injected=stats.injected,
                faults_detected=stats.detected,
                faults_silent=stats.silent)
        return CampaignReport(
            platform=f"ProSE {self.hardware.name}",
            total_seconds=total_seconds,
            total_energy_joules=total_seconds * self._prose_power,
            sequences=completed,
            padded_tokens=padded_tokens,
            useful_tokens=int(workload.lengths.sum()) if len(workload)
            else 0,
            reliability=reliability, slo=slo)

    def run_on_baseline(self, workload: Workload,
                        device: Optional[RooflineDevice] = None
                        ) -> CampaignReport:
        """Simulate the campaign on a commodity baseline (default A100)."""
        device = device or a100()
        total_seconds = 0.0
        padded_tokens = 0
        for length, batch in self._batches(workload):
            throughput = device.throughput(self.model_config, batch=batch,
                                           seq_len=length,
                                           accelerated_only=True)
            total_seconds += batch / throughput
            padded_tokens += length * batch
        return CampaignReport(
            platform=device.spec.name,
            total_seconds=total_seconds,
            total_energy_joules=total_seconds * device.spec.tdp_watts,
            sequences=len(workload),
            padded_tokens=padded_tokens,
            useful_tokens=int(workload.lengths.sum()))


def format_campaign(reports: Sequence[CampaignReport]) -> str:
    lines = [f"{'platform':>18s} {'seconds':>9s} {'inf/s':>8s} "
             f"{'energy J':>9s} {'padding':>8s}"]
    for report in reports:
        lines.append(f"{report.platform:>18s} {report.total_seconds:9.2f} "
                     f"{report.throughput:8.1f} "
                     f"{report.total_energy_joules:9.1f} "
                     f"{report.padding_waste:7.1%}")
    return "\n".join(lines)
