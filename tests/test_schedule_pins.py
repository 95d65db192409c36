"""Exact pins of observed orchestrator runs.

Each case runs the scheduler with every observer attached and compares,
bit for bit, against ``schedule_pins.json``:

* every :class:`~repro.sched.orchestrator.ScheduleResult` field,
  including the per-task ``task_log``;
* the :class:`~repro.telemetry.MetricsRegistry` snapshot;
* the sha256 of the bytes :func:`~repro.telemetry.write_chrome_trace`
  writes for the run's tracer;
* the sha256 of the trace analysis (``analyze_trace(tracer).to_json()``)
  and of its rollup (``build_rollup``, as sorted-keys JSON).

One case runs untraced at Figure 17's design-space operating point
(BERT-base, batch 32, seq 512), where busy timelines fragment and
placements backfill; it pins the schedule record, with the task log
folded to its sha256, and the metrics snapshot.  Its traced twin pins
the trace, analysis and rollup sha256 of that schedule (10,817 spans,
the largest trace the analysis is pinned on).

One case runs the fleet monitor over the benchmark's monitored chaos
fleet (2x2x2, tiny model, batch 64) for a clean run and every chaos
scenario; it pins the sha256 of every sampled series, the alerts, marks,
budgets and tick count, and the dashboard and alert-report text.

Two cases run a serving campaign traced, metered and monitored: the
benchmark's fault-free ``observed`` campaign, and a faulty one with
retries, killed and tolerated stragglers and a dropped batch.  They pin
the trace, analysis and rollup sha256, the metrics (the fault-free path
feeds each batch's nominal time to the latency histogram, the faulty
path its measured span), the monitor as above, and every
:class:`~repro.system.serving.CampaignReport` field.

Floats are stored through ``json`` (shortest round-tripping repr), so an
equal record means identical floats.  Regenerate the fixture, only when
a schedule change is intended, with::

    PYTHONPATH=src python tests/test_schedule_pins.py
"""

from __future__ import annotations

import builtins
import dataclasses
import hashlib
import json
import math
import os
import tempfile
from typing import Callable, Dict, List

import pytest

from repro.arch import best_perf, homogeneous
from repro.arch.config import ArrayGroup, HardwareConfig
from repro.dataflow import ArrayType, build_seq2seq_graph
from repro.experiments.chaos_campaign import DEFAULT_LINK_TRANSIENT_RATE
from repro.fleet import (
    SCENARIO_BUILDERS,
    FleetSimulator,
    build_fleet,
    build_scenario,
)
from repro.model import protein_bert_base, protein_bert_tiny
from repro.monitor import (
    fleet_monitor,
    format_alert_report,
    render_dashboard,
    serving_monitor,
)
from repro.proteins.workloads import uniprot_like_workload
from repro.reliability import (
    DegradationPolicy,
    FaultModel,
    FaultRates,
    RetryPolicy,
    derive_task_seed,
)
from repro.sched import Orchestrator
from repro.sched.orchestrator import ScheduleResult
from repro.system.multi import ProSESystem
from repro.system.serving import CampaignSimulator
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    analyze_trace,
    build_rollup,
    write_chrome_trace,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "schedule_pins.json")

CONFIG = protein_bert_tiny(num_layers=4, hidden_size=128, num_heads=4,
                           intermediate_size=512, max_position=256)


def mixed_g_sizes() -> HardwareConfig:
    """Two G-Type groups of different sizes: the only input on which
    earliest-finish selection compares per-size durations."""
    return HardwareConfig(name="MixedG", groups=(
        ArrayGroup(ArrayType.M, size=64, count=2),
        ArrayGroup(ArrayType.G, size=16, count=4),
        ArrayGroup(ArrayType.G, size=32, count=1),
        ArrayGroup(ArrayType.E, size=16, count=8),
    ), threads=16)


def schedule_record(result: ScheduleResult) -> Dict[str, object]:
    """Every field of ``result``, JSON-shaped."""
    return {
        "makespan_seconds": result.makespan_seconds,
        "batch": result.batch,
        "seq_len": result.seq_len,
        "threads": result.threads,
        "array_utilization": {t.value: v for t, v
                              in result.array_utilization.items()},
        "channel_utilization": {t.value: v for t, v
                                in result.channel_utilization.items()},
        "host_utilization": result.host_utilization,
        "total_stream_bytes": result.total_stream_bytes,
        "total_dispatches": result.total_dispatches,
        "contention_seconds": result.contention_seconds,
        "kind_compute_seconds": dict(result.kind_compute_seconds),
        "task_log": (None if result.task_log is None else
                     [[r.thread, r.name, r.kind, r.ready, r.start, r.end,
                       r.resource] for r in result.task_log]),
    }


def trace_sha256(tracer: Tracer) -> str:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.json")
        write_chrome_trace(tracer, path)
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _observed(run: Callable[[Tracer, MetricsRegistry],
                            List[ScheduleResult]]) -> Dict[str, object]:
    tracer, metrics = Tracer(), MetricsRegistry()
    results = run(tracer, metrics)
    return {"schedules": [schedule_record(r) for r in results],
            "metrics": metrics.rows(),
            "spans": len(tracer),
            "chrome_trace_sha256": trace_sha256(tracer),
            **analysis_record(tracer)}


def analysis_record(tracer: Tracer) -> Dict[str, str]:
    return {"analysis_sha256": text_sha256(analyze_trace(tracer).to_json()),
            "rollup_sha256": text_sha256(
                json.dumps(build_rollup(tracer), sort_keys=True))}


def best_perf_batch4() -> Dict[str, object]:
    return _observed(lambda tracer, metrics: [Orchestrator(best_perf()).run(
        CONFIG, batch=4, seq_len=64, tracer=tracer, metrics=metrics,
        record_tasks=True)])


def mixed_sizes_offset() -> Dict[str, object]:
    # Two G-Type sizes: earliest-finish selection compares per-size
    # durations.
    return _observed(lambda tracer, metrics: [
        Orchestrator(mixed_g_sizes()).run(
            CONFIG, batch=16, seq_len=64, tracer=tracer, metrics=metrics,
            record_tasks=True)])


def homogeneous_pooled() -> Dict[str, object]:
    # Pooled arrays: every dataflow may run on any array of any type.
    return _observed(lambda tracer, metrics: [
        Orchestrator(homogeneous()).run(
            CONFIG, batch=8, seq_len=64, tracer=tracer, metrics=metrics,
            record_tasks=True)])


def seq2seq_graph_builder() -> Dict[str, object]:
    # A caller-supplied graph: encoder plus teacher-forced decoder.
    def builder(sub: int):
        return build_seq2seq_graph(CONFIG, batch=sub, src_len=64,
                                   tgt_len=32)
    return _observed(lambda tracer, metrics: [Orchestrator(best_perf()).run(
        CONFIG, batch=4, seq_len=64, tracer=tracer, metrics=metrics,
        graph_builder=builder)])


def bert_base_batch32_seq512() -> Dict[str, object]:
    # Untraced, at the design-space sweep's operating point; the task log
    # is too large to store, so only its sha256 is pinned.
    metrics = MetricsRegistry()
    result = Orchestrator(best_perf()).run(
        protein_bert_base(), batch=32, seq_len=512, metrics=metrics,
        record_tasks=True)
    record = schedule_record(result)
    record["task_log"] = text_sha256(json.dumps(record["task_log"]))
    return {"schedules": [record], "metrics": metrics.rows()}


def bert_base_batch32_seq512_traced() -> Dict[str, object]:
    # The same schedule traced: the benchmark's largest explain trace.
    return _observed(lambda tracer, metrics: [Orchestrator(best_perf()).run(
        protein_bert_base(), batch=32, seq_len=512, tracer=tracer,
        metrics=metrics)])


def system_simulate() -> Dict[str, object]:
    return _observed(lambda tracer, metrics: list(
        ProSESystem(best_perf(), instances=2).simulate(
            CONFIG, batch=6, seq_len=64, tracer=tracer,
            metrics=metrics).per_instance))


def fleet_one_failure() -> Dict[str, object]:
    # The paper's system shape at two instances: instance 1 dies, the
    # heartbeat detects it, and its lost work is re-sharded onto instance
    # 0.  No ScheduleResult: pins the fault and recovery spans.
    def run(tracer, metrics):
        topology = build_fleet(racks=1, hosts_per_rack=1,
                               instances_per_host=2)
        FleetSimulator(
            topology, model_config=CONFIG, seq_len=64, reference_batch=3,
            fault_model=FaultModel(seed=11, targeted_instance_failures=(1,))
        ).run(batch=6, tracer=tracer, metrics=metrics)
        return []
    return _observed(run)


def fleet_rack_power_loss() -> Dict[str, object]:
    # No ScheduleResult: pins the shard/fabric/recovery span categories.
    def run(tracer, metrics):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        FleetSimulator(topology, model_config=CONFIG, seq_len=64,
                       reference_batch=4).run(
            batch=64, scenario=build_scenario("rack_power_loss", topology),
            tracer=tracer, metrics=metrics)
        return []
    return _observed(run)


def monitor_record(monitor) -> Dict[str, object]:
    """The sha256 of every series, alert, mark and budget, and the text."""
    report = monitor.report()
    return {
        "series_sha256": text_sha256(json.dumps(
            {series.name: list(series.samples())
             for series in monitor.store})),
        "alerts_sha256": text_sha256(json.dumps(
            [[a.rule, a.severity, a.fired_at, a.resolved_at, a.value,
              a.peak_value] for a in report.alerts])),
        "marks_sha256": text_sha256(json.dumps(
            [[m.at_seconds, m.label, m.target] for m in report.marks])),
        "budgets_sha256": text_sha256(json.dumps(
            [[b.slo, b.target, b.good, b.bad, b.consumed_fraction,
              b.remaining_fraction, b.worst_burn_rate]
             for b in report.budgets])),
        "ticks": report.ticks,
        "end_seconds": report.end_seconds,
        "dashboard_sha256": text_sha256(render_dashboard(monitor)),
        "alert_report_sha256": text_sha256(format_alert_report(report)),
    }


def fleet_monitor_scenarios() -> Dict[str, object]:
    # The benchmark's monitored chaos fleet, one monitor per scenario.
    topology = build_fleet(racks=2, hosts_per_rack=2, instances_per_host=2)
    pinned = {}
    for name in ("none",) + tuple(SCENARIO_BUILDERS):
        simulator = FleetSimulator(
            topology, model_config=protein_bert_tiny(),
            fault_model=FaultModel(
                FaultRates(link_transient=DEFAULT_LINK_TRANSIENT_RATE),
                seed=derive_task_seed(2022, name)),
            policy=DegradationPolicy(min_capacity_fraction=0.25,
                                     circuit_breaker_failures=3),
            seq_len=64, reference_batch=4)
        monitor = fleet_monitor()
        simulator.run(batch=64, scenario=(
            None if name == "none" else build_scenario(name, topology)),
            monitor=monitor)
        pinned[name] = monitor_record(monitor)
    return {"schedules": [], "monitor": pinned}


#: The benchmark's ``observed`` library: 64 sequences (seed 1) in six
#: buckets from 64 to 2048 tokens.
LIBRARY = uniprot_like_workload(count=64, seed=1)


def _campaign_simulator(faulty: bool) -> CampaignSimulator:
    if not faulty:
        # The benchmark's fault-free campaign.
        return CampaignSimulator(model_config=protein_bert_base())
    # Seed 6 gives retries, killed and tolerated stragglers and a drop.
    return CampaignSimulator(
        model_config=protein_bert_base(), max_batch=8,
        fault_model=FaultModel(FaultRates(batch_failure=0.3, straggler=0.3,
                                          straggler_slowdown=3.0), seed=6),
        retry_policy=RetryPolicy(max_retries=2, backoff_base_seconds=0.0005,
                                 backoff_cap_seconds=0.01,
                                 straggler_deadline_multiple=2.0))


def _campaign(faulty: bool) -> Dict[str, object]:
    simulator = _campaign_simulator(faulty)
    monitor = serving_monitor()
    reports = []

    def run(tracer, metrics):
        reports.append(simulator.run_on_prose(
            LIBRARY, tracer=tracer, metrics=metrics, monitor=monitor))
        return []
    record = _observed(run)
    record["report"] = dataclasses.asdict(reports[0])
    record["monitor"] = monitor_record(monitor)
    return record


CASES = {"best_perf_batch4": best_perf_batch4,
         "bert_base_batch32_seq512": bert_base_batch32_seq512,
         "bert_base_batch32_seq512_traced": bert_base_batch32_seq512_traced,
         "homogeneous_pooled": homogeneous_pooled,
         "mixed_g_sizes_offset": mixed_sizes_offset,
         "seq2seq_graph_builder": seq2seq_graph_builder,
         "system_simulate_2x": system_simulate,
         "fleet_one_failure_1x1x2": fleet_one_failure,
         "fleet_rack_power_loss": fleet_rack_power_loss,
         "fleet_monitor_scenarios": fleet_monitor_scenarios,
         "serving_faulty_retries": lambda: _campaign(faulty=True),
         "serving_observed": lambda: _campaign(faulty=False)}


def _normalized(record: Dict[str, object]) -> Dict[str, object]:
    """``record`` after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def pins() -> Dict[str, Dict[str, object]]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_schedule_result_pinned(pins, case):
    got = _normalized(CASES[case]())
    want = pins[case]
    assert len(got["schedules"]) == len(want["schedules"])
    for index, (mine, pinned) in enumerate(zip(got["schedules"],
                                               want["schedules"])):
        for field, value in pinned.items():
            assert mine[field] == value, f"{case}[{index}].{field} moved"
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        if key != "schedules":
            assert got[key] == want[key], f"{case}.{key} moved"


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum()`` of CPython 3.12 and later, in Python.

    Exact ints add as ints.  Once the total is a float, each float item
    is added with Neumaier's compensation and each int as a float; the
    compensation joins the total at the end (or before an item of any
    other type, which adds generically from then on).
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
        else:
            return total
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    compensation = 0.0
    for item in items:
        if type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
        elif isinstance(item, int) and -2**63 <= item < 2**63:
            total += float(item)
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            for item in items:
                total = total + item
            return total
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_emulation():
    # Left to right, 1e16 + 1.0 rounds the 1.0 away; compensated, it
    # comes back at the end.
    values = [1e16, 1.0, -1e16]
    assert (1e16 + 1.0) - 1e16 == 0.0 and compensated_sum(values) == 1.0
    assert compensated_sum([]) == 0 and type(compensated_sum([])) is int
    assert compensated_sum([1, True, 2]) == 4
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1.5, 2, 0.25]) == 3.75


@pytest.mark.parametrize("case", sorted(CASES))
def test_analysis_pins_hold_under_compensated_sum(pins, case, monkeypatch):
    """Every pinned float is added left to right by the program itself,
    so no pinned byte depends on the interpreter's ``sum()``."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    got = _normalized(CASES[case]())
    monkeypatch.undo()
    assert got == pins[case]


def test_mixed_config_places_on_both_g_sizes():
    """The mixed case must really exercise the per-size comparison."""
    record = mixed_sizes_offset()["schedules"][0]
    resources = {row[6] for row in record["task_log"]}
    assert any(name.startswith("4x 16x16 G") for name in resources)
    assert any(name.startswith("1x 32x32 G") for name in resources)


def test_faulty_campaign_exercises_every_outcome():
    """The faulty serving case must retry, kill and wait out stragglers,
    and drop a batch."""
    tracer = Tracer()
    _campaign_simulator(faulty=True).run_on_prose(LIBRARY, tracer=tracer)
    outcomes = {span.args.get("outcome") for span in tracer.spans}
    assert {"ok", "straggled", "dropped"} <= outcomes
    instants = {event.name for event in tracer.instants}
    assert instants == {"retry", "straggler_killed", "batch_dropped"}


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as out:
        json.dump({name: CASES[name]() for name in sorted(CASES)}, out,
                  indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {FIXTURE}")
