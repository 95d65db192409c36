"""Campaign/serving simulator: mixed-length workloads on ProSE vs GPU.

Drives a :class:`~repro.proteins.workloads.Workload` through bucketed
padded batches on both a simulated ProSE instance and a commodity
baseline, producing end-to-end campaign time, energy, and the padding
waste of the chosen batching policy — the deployment-level view of the
paper's drug-discovery motivation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..arch.config import HardwareConfig, best_perf
from ..baselines.gpu import a100
from ..baselines.roofline import RooflineDevice
from ..model.config import BertConfig, protein_bert_base
from ..monitor.engine import Mark, Monitor, SloOutcome
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
        :class:`~repro.reliability.ReliabilityReport`.  A monitor is
        armed before the first batch; the batch loop calls no observer,
        and :meth:`_observe` reads its rows afterwards.

        Args:
            workload: the sequence library to score.
            tracer: optional span tracer.  Each padded batch becomes a
                span on its bucket's track (pid ``serving``), with one
                child span per attempt/backoff and instant events for
                retries, straggler kills, and drops.
            metrics: optional registry accumulating the serving-latency
                histogram (p50/p95/p99 in the dump), sequence/token
                counters, and retry/straggler/drop counters.
            monitor: optional monitor (see
                :func:`repro.monitor.serving_monitor`).  Each batch's end
                is one sample tick: queue depth, batch latency, and
                retry/drop counters land in the monitor's series, every
                batch feeds the latency and availability SLOs (served
                within ``latency_multiple x nominal`` = good), alert
                rules run on the campaign clock, and every failed or
                straggling attempt is marked as a fault.
        """
        total_seconds = 0.0
        wasted_seconds = 0.0
        padded_tokens = 0
        completed = 0
        retries = stragglers = failures = dropped = 0
        faulty = self.fault_model is not None and self.fault_model.active
        policy = self.retry_policy
        heartbeat = HeartbeatConfig()
        rows: List[_BatchRow] = []
        # Campaigns revisit the same (bucket length, batch size) pairs;
        # the shape-keyed cache simulates each pair once.
        batches = [(length, batch, cached_schedule(
            self.hardware, self.model_config, batch=batch,
            seq_len=length).makespan_seconds)
            for length, batch in self._batches(workload)]
        if monitor is not None and batches:
            # The horizon is the fault-free campaign.
            monitor.begin(reduce(add, (nominal for _, _, nominal
                                       in batches), 0))
        for length, batch, nominal in batches:
            if faulty:
                # Fail fast on knob combinations that could never make
                # progress at this batch's time scale (e.g. a straggler
                # deadline shorter than the first backoff step), instead
                # of silently retrying forever below.
                validate_policy_interplay(policy, heartbeat, nominal)
            padded_tokens += length * batch
            batch_start = total_seconds
            spans, instants = [], []
            attempt = 0
            outcome = "ok"
            while True:
                event = self.fault_model.batch_event() if faulty else "ok"
                if event == "fail":
                    failures += 1
                    partial = (self.fault_model.attempt_fraction()
                               * nominal)
                    spans.append((total_seconds, total_seconds + partial,
                                  "failed", {"attempt": attempt}))
                    total_seconds += partial
                    wasted_seconds += partial
                    if attempt >= policy.max_retries:
                        dropped += batch
                        outcome = "dropped"
                        instants.append((
                            "batch_dropped", total_seconds,
                            {"batch": batch, "attempts": attempt + 1}))
                        break
                    backoff = policy.backoff_seconds(attempt)
                    spans.append((total_seconds, total_seconds + backoff,
                                  "backoff", {"attempt": attempt}))
                    instants.append(("retry", total_seconds,
                                     {"attempt": attempt}))
                    total_seconds += backoff
                    wasted_seconds += backoff
                    retries += 1
                    attempt += 1
                    continue
                if event == "straggle":
                    slowdown = self.fault_model.rates.straggler_slowdown
                    deadline = (policy.straggler_deadline_multiple
                                * nominal)
                    if (slowdown * nominal > deadline
                            and attempt < policy.max_retries):
                        # Kill the straggler at the deadline and rerun.
                        spans.append((total_seconds,
                                      total_seconds + deadline, "straggle",
                                      {"attempt": attempt, "killed": True}))
                        instants.append(("straggler_killed",
                                         total_seconds + deadline,
                                         {"attempt": attempt}))
                        total_seconds += deadline
                        wasted_seconds += deadline
                        stragglers += 1
                        retries += 1
                        attempt += 1
                        continue
                    # Tolerable straggle (or retries exhausted): wait it
                    # out; the overrun beyond nominal is waste.
                    spans.append((total_seconds,
                                  total_seconds + slowdown * nominal,
                                  "straggle",
                                  {"attempt": attempt, "killed": False}))
                    total_seconds += slowdown * nominal
                    wasted_seconds += (slowdown - 1.0) * nominal
                    completed += batch
                    outcome = "straggled"
                    break
                spans.append((total_seconds, total_seconds + nominal,
                              "attempt", {"attempt": attempt} if faulty
                              else {}))
                total_seconds += nominal
                completed += batch
                break
            rows.append(_BatchRow(
                length, batch, nominal, batch_start, total_seconds, outcome,
                attempt + 1, spans, instants,
                (completed, retries, stragglers, failures, dropped)))
        reliability = None
        if faulty:
            useful_seconds = reduce(add, (row.nominal for row in rows
                                          if row.outcome != "dropped"), 0)
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
                wasted_joules=wasted_seconds * self._prose_power)
        report = CampaignReport(
            platform=f"ProSE {self.hardware.name}",
            total_seconds=total_seconds,
            total_energy_joules=total_seconds * self._prose_power,
            sequences=completed,
            padded_tokens=padded_tokens,
            useful_tokens=int(workload.lengths.sum()) if len(workload)
            else 0,
            reliability=reliability)
        return self._observe(report, rows, faulty, tracer, metrics, monitor)

    def _observe(self, report: CampaignReport, rows: List["_BatchRow"],
                 faulty: bool, tracer: Optional[Tracer],
                 metrics: Optional[MetricsRegistry],
                 monitor: Optional[Monitor]) -> CampaignReport:
        """Emit every observer's output from the campaign's batch rows;
        returns ``report`` with the monitor's outcome attached."""
        totals = rows[-1].totals if rows else (0, 0, 0, 0, 0)
        _, retries, stragglers, failures, dropped = totals
        names = [f"batch{index}[len={row.length} n={row.size}]"
                 for index, row in enumerate(rows)]
        if tracer is not None:
            for name, row in zip(names, rows):
                tid = f"bucket{row.length:05d}"
                for start, end, category, args in row.spans:
                    tracer.add_span(name, start, end, pid="serving",
                                    tid=tid, category=category,
                                    seq_len=row.length, batch=row.size,
                                    **args)
                tracer.add_span(name, row.start, row.end, pid="serving",
                                tid=tid, category="batch",
                                seq_len=row.length, batch=row.size,
                                outcome=row.outcome, attempts=row.attempts,
                                nominal_seconds=row.nominal)
                for instant, t, args in row.instants:
                    tracer.instant(instant, t, pid="serving", tid=tid,
                                   category="fault", **args)
            # End-to-end root span: the anchor trace analytics chains
            # critical paths from (batches run back-to-back on the
            # campaign clock, so the batch spans tile it exactly).
            tracer.add_span(
                "campaign.run", 0.0, report.total_seconds, pid="serving",
                tid="campaign", category="run", platform=report.platform,
                batches=len(rows), sequences=report.sequences,
                retries=retries, dropped=dropped)
        if metrics is not None:
            for row in rows:
                if row.outcome != "dropped":
                    metrics.histogram(
                        "serving/batch_latency_seconds").observe(
                        row.end - row.start if faulty else row.nominal)
            metrics.counter("serving/sequences").inc(report.sequences)
            metrics.counter("serving/padded_tokens").inc(
                report.padded_tokens)
            metrics.counter("serving/retries").inc(retries)
            metrics.counter("serving/stragglers").inc(stragglers)
            metrics.counter("serving/failures").inc(failures)
            metrics.counter("serving/dropped").inc(dropped)
            metrics.gauge("serving/campaign_seconds").set(
                report.total_seconds)
            metrics.gauge("serving/padding_waste").set(report.padding_waste)
        if monitor is None or not rows:
            return report
        served = [row.outcome != "dropped" for row in rows]
        sizes = [float(row.size) for row in rows]
        latencies = [row.end - row.start if ok else None
                     for row, ok in zip(rows, served)]
        series = {
            "serving/queue_depth": [float(len(rows) - index - 1)
                                    for index in range(len(rows))],
            "serving/completed": [float(row.totals[0]) for row in rows],
            "serving/retries": [float(row.totals[1]) for row in rows],
            "serving/dropped": [float(row.totals[4]) for row in rows],
            "serving/batch_latency": latencies}
        events = {"availability": (
            [size if ok else 0.0 for size, ok in zip(sizes, served)],
            [0.0 if ok else size for size, ok in zip(sizes, served)])}
        thresholds = [monitor.latency_threshold(row.nominal) for row in rows]
        if thresholds[0] is not None:
            on_time = [latency is not None and latency <= threshold
                       for latency, threshold in zip(latencies, thresholds)]
            events["latency"] = (
                [size if good else 0.0 for size, good in zip(sizes, on_time)],
                [size if ok and not good else 0.0
                 for size, ok, good in zip(sizes, served, on_time)])
        marks = [Mark(start, "fault", name)
                 for name, row in zip(names, rows)
                 for start, _, category, _ in row.spans
                 if category in ("failed", "straggle")]
        return replace(report, slo=monitor.observe(
            [row.end for row in rows], series, events, marks,
            end_seconds=report.total_seconds).outcome())

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


class _BatchRow(NamedTuple):
    """One padded batch of a campaign, as the observers read it."""

    length: int
    size: int
    nominal: float
    start: float
    end: float
    outcome: str  # "ok", "straggled" or "dropped"
    attempts: int
    #: (start, end, category, args) of each attempt and backoff wait.
    spans: List[Tuple[float, float, str, Dict[str, object]]]
    #: (name, t, args) of each retry, straggler kill and drop.
    instants: List[Tuple[str, float, Dict[str, object]]]
    #: Campaign completed, retries, stragglers, failures and dropped
    #: when the batch ended.
    totals: Tuple[int, int, int, int, int]


def format_campaign(reports: Sequence[CampaignReport]) -> str:
    lines = [f"{'platform':>18s} {'seconds':>9s} {'inf/s':>8s} "
             f"{'energy J':>9s} {'padding':>8s}"]
    for report in reports:
        lines.append(f"{report.platform:>18s} {report.total_seconds:9.2f} "
                     f"{report.throughput:8.1f} "
                     f"{report.total_energy_joules:9.1f} "
                     f"{report.padding_waste:7.1%}")
    return "\n".join(lines)
