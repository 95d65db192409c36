"""Command-line interface for the ProSE reproduction.

    python -m repro.cli simulate --batch 128 --seq-len 512
    python -m repro.cli compare --baseline a100
    python -m repro.cli experiments "Figure 18"
    python -m repro.cli dse --limit 40 --workers 2 --observe dse
    python -m repro.cli binding
    python -m repro.cli embed MEYQKLVIV ACDEFGHIK
    python -m repro.cli zoo
    python -m repro.cli reliability --fault-rate 0.05 --seed 7
    python -m repro.cli fleet --scenario rack_power_loss --observe fleet
    python -m repro.cli trace --seq-len 128 --batch 8 --observe run
    python -m repro.cli analyze --trace trace.json --format ascii
    python -m repro.cli analyze --trace now.json --against before.json

``--observe DIR`` (dse, reliability, fleet, trace) writes what the run
observed into DIR under fixed names: ``trace.json`` (Perfetto),
``metrics.jsonl``, and for a monitored ``fleet`` run ``dashboard.txt``
and ``alerts.txt``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .arch.config import HardwareConfig, table4_configs
from .core.engine import ProSEEngine
from .core.session import SMALL_CONFIG, InferenceSession
from .model.config import BertConfig, protein_bert_base, protein_bert_tiny
from .model.zoo import describe, zoo_names
from .proteins.alphabet import is_valid_sequence
from .proteins.tokenizer import ProteinTokenizer


def _hardware_by_name(name: str) -> HardwareConfig:
    for config in table4_configs():
        if config.name.lower() == name.lower():
            return config
    names = ", ".join(config.name for config in table4_configs())
    raise SystemExit(f"unknown hardware '{name}'; choose from: {names}")


def _observe(args: argparse.Namespace, tracer=None, metrics=None,
             monitor=None, **metadata) -> None:
    """Write a run's observations into ``args.observe``, one line each.

    Does nothing without ``--observe``.  ``trace.json`` gets the
    tracer's spans with metric counters and monitor series as counter
    tracks; ``metrics.jsonl`` the registry; ``dashboard.txt`` and
    ``alerts.txt`` the monitor's panels.
    """
    if args.observe is None:
        return
    import os

    from .telemetry import (
        validate_chrome_trace,
        write_chrome_trace,
        write_metrics_jsonl,
    )

    os.makedirs(args.observe, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(args.observe, name)

    if tracer is not None:
        data = write_chrome_trace(
            tracer, path("trace.json"),
            metadata={"tool": f"repro.cli {args.command}",
                      "version": __version__, **metadata},
            metrics=metrics,
            series=monitor.store if monitor is not None else None)
        counts = validate_chrome_trace(data)
        print(f"trace:     {counts['spans']} spans, "
              f"{counts['instants']} instants, {counts['counters']} "
              f"counters -> {path('trace.json')} "
              f"(open at https://ui.perfetto.dev)")
    if metrics is not None:
        write_metrics_jsonl(metrics, path("metrics.jsonl"))
        print(f"metrics:   {len(metrics)} series -> {path('metrics.jsonl')}")
    if monitor is not None:
        from .monitor import format_alert_report, render_dashboard

        names = [name for name in monitor.store.names()
                 if name.startswith(f"{monitor.name}/")]
        with open(path("dashboard.txt"), "w", encoding="utf-8") as handle:
            handle.write(render_dashboard(monitor, series_names=names)
                         + "\n")
        print(f"dashboard: {len(names)} series -> {path('dashboard.txt')}")
        report = monitor.report()
        with open(path("alerts.txt"), "w", encoding="utf-8") as handle:
            handle.write(format_alert_report(report) + "\n")
        print(f"alerts:    {len(report.alerts)} alert(s), "
              f"{len(report.pages)} page(s) -> {path('alerts.txt')}")


def cmd_simulate(args: argparse.Namespace) -> int:
    engine = ProSEEngine(hardware=_hardware_by_name(args.hardware))
    report = engine.simulate(batch=args.batch, seq_len=args.seq_len,
                             threads=args.threads)
    print(f"configuration:    {report.config_name}")
    print(f"throughput:       {report.throughput:.1f} inferences/s")
    print(f"batch latency:    {report.latency_seconds * 1e3:.1f} ms")
    print(f"system power:     {report.system_power_watts:.1f} W")
    print(f"efficiency:       {report.efficiency:.2f} inf/s/W")
    print(f"bottleneck:       {report.schedule.bottleneck}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    engine = ProSEEngine(hardware=_hardware_by_name(args.hardware))
    devices = {"a100": engine.a100, "tpuv2": engine.tpu_v2,
               "tpuv3": engine.tpu_v3}
    names = [args.baseline] if args.baseline != "all" else list(devices)
    for name in names:
        comparison = engine.compare(devices[name], batch=args.batch,
                                    seq_len=args.seq_len)
        print(f"vs {comparison.baseline_name:6s}: "
              f"{comparison.speedup:5.2f}x speedup, "
              f"{comparison.efficiency_gain:7.1f}x power efficiency")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import run_all, select

    try:
        select(args.only or None)
    except ValueError as error:
        raise SystemExit(str(error)) from error
    run_all(only=args.only or None, workers=args.workers)
    return 0


def _print_design_points(result) -> None:
    print(f"evaluated {len(result.points)} configurations")
    for label, point in (("BestPerf", result.best_perf),
                         ("MostPowerEfficient",
                          result.most_power_efficient),
                         ("MostAreaEfficient",
                          result.most_area_efficient)):
        print(f"{label:>20s}: {point.config.name} "
              f"runtime(norm)={point.normalized_runtime:.3f} "
              f"power={point.power_watts:.2f}W "
              f"area={point.area_mm2:.2f}mm2")


def cmd_dse(args: argparse.Namespace) -> int:
    import time

    from .dse.explorer import DesignSpaceExplorer
    from .dse.space import DEFAULT_PE_BUDGET
    from .parallel import SweepExecutor
    from .telemetry import Tracer

    tracer = Tracer() if args.observe else None
    executor = SweepExecutor(SweepExecutor.resolve_workers(args.workers))
    explorer = DesignSpaceExplorer(batch=args.batch, seq_len=args.seq_len)
    started = time.perf_counter()
    result = explorer.sweep(pe_budget=args.budget or DEFAULT_PE_BUDGET,
                            limit=args.limit, executor=executor,
                            tracer=tracer)
    elapsed = time.perf_counter() - started
    _print_design_points(result)
    print(f"wall time: {elapsed:.3f}s "
          f"({executor.workers} worker(s), mode={executor.last_mode})")
    for name, snap in sorted(executor.last_cache_stats.items()):
        print(f"cache[{name}]: {snap.hits} hits, {snap.misses} misses")
    _observe(args, tracer=tracer, workers=executor.workers,
             mode=executor.last_mode)
    return 0


def cmd_binding(args: argparse.Namespace) -> int:
    from .binding.experiment import run_binding_study
    from .experiments.binding_study import format_result

    print(format_result(run_binding_study(seed=args.seed)))
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    session = InferenceSession.small(functional=args.functional)
    result = session.embed(args.sequences)
    print(f"embedded {len(args.sequences)} sequences -> "
          f"{result.embeddings.shape[1]}-d features "
          f"({'functional datapath' if result.functional else 'reference'})")
    print(f"estimated ProSE latency: "
          f"{result.estimated_latency_seconds * 1e3:.3f} ms, energy: "
          f"{result.estimated_energy_joules * 1e3:.2f} mJ")
    for sequence, row in zip(args.sequences, result.embeddings):
        head = " ".join(f"{value:+.3f}" for value in row[:4])
        print(f"  {sequence[:20]:<22s} [{head} ...]")
    return 0


def cmd_reliability(args: argparse.Namespace) -> int:
    from .experiments import fault_campaign
    from .fleet import FleetSimulator, build_fleet
    from .reliability import FaultModel, FaultRates
    from .telemetry import MetricsRegistry

    metrics = MetricsRegistry("reliability") if args.observe else None
    if args.sweep:
        result = fault_campaign.run(seed=args.seed, workers=args.workers,
                                    metrics=metrics)
        print(fault_campaign.format_result(result))
        _observe(args, metrics=metrics)
        return 0

    rate = args.fault_rate
    result = fault_campaign.run(fault_rates=(rate,), seed=args.seed,
                                metrics=metrics)
    report = result.serving_reports[0]
    print(f"serving campaign @ fault rate {rate:g} (seed {args.seed}):")
    print(f"  {report.summary()}")

    fault_model = FaultModel(
        FaultRates(instance_failure=rate, link_transient=rate / 10.0),
        seed=args.seed)
    topology = build_fleet(racks=1, hosts_per_rack=1,
                           instances_per_host=args.instances)
    scenario = FleetSimulator(
        topology, model_config=_model_config(args), fault_model=fault_model,
        seq_len=args.seq_len,
        reference_batch=args.batch // args.instances).run(batch=args.batch)
    print(f"{args.instances}-instance system @ instance-failure rate "
          f"{rate:g}:")
    print(f"  {scenario.summary()}")
    _observe(args, metrics=metrics)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from .experiments import chaos_campaign
    from .fleet import (
        SCENARIO_BUILDERS,
        FleetSimulator,
        build_fleet,
        build_scenario,
    )
    from .monitor import fleet_monitor
    from .reliability import (
        DegradationPolicy,
        FaultModel,
        FaultRates,
        derive_task_seed,
    )
    from .telemetry import MetricsRegistry, Tracer

    if args.observe and (args.list or args.scenario == "all"):
        raise SystemExit("--observe needs one scenario run; it cannot "
                         "combine with --list or --scenario all")
    if args.list:
        topology = build_fleet(racks=args.racks,
                               hosts_per_rack=args.hosts_per_rack,
                               instances_per_host=args.instances_per_host,
                               heterogeneous=args.heterogeneous)
        width = max(len(name) for name in SCENARIO_BUILDERS)
        for name, builder in SCENARIO_BUILDERS.items():
            print(f"{name:<{width}s}  {builder(topology).description}")
        return 0

    if args.scenario == "all":
        result = chaos_campaign.run(
            batch=args.batch, seed=args.seed, racks=args.racks,
            hosts_per_rack=args.hosts_per_rack,
            instances_per_host=args.instances_per_host,
            heterogeneous=args.heterogeneous, workers=args.workers)
        print(chaos_campaign.format_result(result))
        return 0

    topology = build_fleet(racks=args.racks,
                           hosts_per_rack=args.hosts_per_rack,
                           instances_per_host=args.instances_per_host,
                           hardware=_hardware_by_name(args.hardware),
                           heterogeneous=args.heterogeneous)
    scenario = (None if args.scenario == "none"
                else build_scenario(args.scenario, topology))
    fault_model = FaultModel(
        FaultRates(link_transient=args.link_transient_rate),
        seed=derive_task_seed(args.seed, args.scenario))
    simulator = FleetSimulator(
        topology, model_config=_model_config(args), fault_model=fault_model,
        policy=DegradationPolicy(
            min_capacity_fraction=args.min_capacity,
            circuit_breaker_failures=args.breaker_failures),
        seq_len=args.seq_len, reference_batch=args.reference_batch)
    tracer = Tracer() if args.observe else None
    metrics = MetricsRegistry()
    monitor = fleet_monitor() if args.observe else None
    report = simulator.run(batch=args.batch, scenario=scenario,
                           tracer=tracer, metrics=metrics, monitor=monitor)

    print(f"fleet:     {report.topology}")
    if scenario is not None:
        print(f"scenario:  {scenario.name} — {scenario.description}")
    else:
        print("scenario:  none (clean run)")
    print(f"workload:  {report.batch} inferences, seq_len {args.seq_len}, "
          f"seed {args.seed}")
    print(f"makespan:  {report.makespan_seconds * 1e3:.3f} ms "
          f"(nominal {report.nominal_makespan_seconds * 1e3:.3f} ms, "
          f"availability {report.availability:.4f})")
    print(f"goodput:   {report.goodput:.1f} inf/s "
          f"({report.completed:.1f} done, {report.shed:.1f} shed)")
    print(f"recovery:  {report.failures} failure(s), "
          f"{report.detections} detection(s), {report.reshards} "
          f"re-shard(s) moving {report.resharded_inferences:.1f} inf "
          f"in {report.recovery_seconds * 1e3:.3f} ms")
    print(f"faults:    {report.link_retransmissions} link "
          f"retransmission(s), {report.brownouts} brownout(s)")
    print(f"energy:    {report.energy_joules:.3f} J")
    if args.per_instance:
        for outcome in report.per_instance:
            print(f"  {outcome.instance_id:<10s} {outcome.backend:<16s} "
                  f"alloc {outcome.allocated:7.2f}  "
                  f"done {outcome.completed:7.2f}  "
                  f"finish {outcome.finish_seconds * 1e3:8.3f} ms  "
                  f"{outcome.final_state}"
                  f"{'  [breaker open]' if outcome.breaker_open else ''}")
    _observe(args, tracer=tracer, metrics=metrics, monitor=monitor,
             scenario=report.scenario, batch=report.batch, seed=args.seed)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .telemetry import (
        analyze_trace,
        critical_path_spans,
        format_analysis,
        load_trace,
        to_chrome_trace,
        validate_chrome_trace,
    )

    if args.top < 1:
        raise SystemExit(f"--top must be at least 1, got {args.top}")

    def load(path: str):
        try:
            return load_trace(path)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot analyze {path}: {error}") from error

    tracer = load(args.trace)
    against = load(args.against) if args.against else None
    try:
        analysis = analyze_trace(tracer, against=against, root=args.root)
    except ValueError as error:
        raise SystemExit(f"cannot analyze {args.trace}: {error}") \
            from error

    if args.format == "json":
        text = analysis.to_json(top=args.top)
    elif args.format == "ascii":
        text = format_analysis(analysis, top=args.top)
    else:  # perfetto: re-export with the critical path as its own track
        out = args.out or "analysis.json"
        data = to_chrome_trace(
            tracer,
            metadata={"tool": "repro.cli analyze", "version": __version__,
                      "source": args.trace,
                      "critical_path_hops": len(analysis.path.hops)},
            extra_spans=critical_path_spans(analysis.path))
        counts = validate_chrome_trace(data)
        import json as json_module

        with open(out, "w", encoding="utf-8") as handle:
            json_module.dump(data, handle, indent=1)
        print(f"{counts['spans']} spans on {counts['tracks']} tracks "
              f"(+1 critical-path track, {len(analysis.path.hops)} "
              f"hop(s)) -> {out} (open at https://ui.perfetto.dev)")
        print(format_analysis(analysis, top=args.top))
        return 0

    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"analysis -> {args.out}", file=sys.stderr)
    return 0


def cmd_zoo(args: argparse.Namespace) -> int:
    for name in zoo_names():
        print(describe(name))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import MetricsRegistry, Tracer, render_tracer

    tracer = Tracer()
    metrics = MetricsRegistry()
    hardware = _hardware_by_name(args.hardware)
    config = _model_config(args)
    workloads = (("schedule", "system", "serving", "functional")
                 if args.workload == "all" else (args.workload,))

    if "schedule" in workloads:
        from .sched.orchestrator import Orchestrator

        result = Orchestrator(hardware).run(
            config, batch=args.batch, seq_len=args.seq_len,
            threads=args.threads, tracer=tracer, metrics=metrics,
            trace_pid="schedule")
        print(f"schedule: makespan {result.makespan_seconds * 1e3:.3f} ms, "
              f"bottleneck {result.bottleneck}")
    if "system" in workloads:
        from .system.multi import ProSESystem

        system = ProSESystem(hardware=hardware, instances=args.instances)
        report = system.simulate(
            config, batch=max(args.batch, args.instances),
            seq_len=args.seq_len, tracer=tracer, metrics=metrics)
        print(f"system: {report.instances} instances, "
              f"{report.throughput:.1f} inf/s")
    if "serving" in workloads:
        from .proteins.workloads import uniprot_like_workload
        from .system.serving import CampaignSimulator

        simulator = CampaignSimulator(model_config=config,
                                      hardware=hardware,
                                      max_batch=max(args.batch, 1))
        campaign = simulator.run_on_prose(
            uniprot_like_workload(count=args.sequences, seed=args.seed),
            tracer=tracer, metrics=metrics)
        print(f"serving: {campaign.sequences} sequences in "
              f"{campaign.total_seconds:.3f} s")
    if "functional" in workloads:
        import numpy as np

        from .arch.accelerated_model import AcceleratedProteinBert
        from .model.bert import ProteinBert

        tiny = protein_bert_tiny(num_layers=2, hidden_size=64,
                                 num_heads=4, intermediate_size=128)
        accelerated = AcceleratedProteinBert(
            ProteinBert(tiny, seed=args.seed), tracer=tracer,
            metrics=metrics)
        rng = np.random.default_rng(args.seed)
        tokens = rng.integers(0, tiny.vocab_size,
                              size=(2, min(args.seq_len, 32)))
        accelerated.forward(tokens)
        tiles = metrics.get("functional/tiles")
        print(f"functional: {int(tiles.value)} GEMM tiles")

    _observe(args, tracer=tracer, metrics=metrics,
             workloads=list(workloads), batch=args.batch,
             seq_len=args.seq_len)
    if args.ascii:
        print()
        print(render_tracer(tracer, width=args.width))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ProSE (ASPLOS 2022) reproduction CLI")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=False)

    simulate = sub.add_parser("simulate",
                              help="cycle-level ProSE simulation")
    simulate.add_argument("--hardware", default="BestPerf")
    simulate.add_argument("--batch", type=int, default=128)
    simulate.add_argument("--seq-len", type=int, default=512)
    simulate.add_argument("--threads", type=int, default=None)
    simulate.set_defaults(handler=cmd_simulate)

    compare = sub.add_parser("compare", help="compare vs a baseline")
    compare.add_argument("--hardware", default="BestPerf")
    compare.add_argument("--baseline", default="all",
                         choices=["a100", "tpuv2", "tpuv3", "all"])
    compare.add_argument("--batch", type=int, default=128)
    compare.add_argument("--seq-len", type=int, default=512)
    compare.set_defaults(handler=cmd_compare)

    experiments = sub.add_parser("experiments",
                                 help="regenerate paper artifacts")
    experiments.add_argument("only", nargs="*",
                             help='experiment ids, e.g. "Figure 18"')
    experiments.add_argument("--workers", type=int, default=None,
                             help="fan experiments out over N processes "
                                  "(default $REPRO_SWEEP_WORKERS or 1)")
    experiments.set_defaults(handler=cmd_experiments)

    dse = sub.add_parser(
        "dse", help="design-space exploration sweep (Figures 16-17)")
    dse.add_argument("--batch", type=int, default=32)
    dse.add_argument("--seq-len", type=int, default=512)
    dse.add_argument("--limit", type=int, default=None,
                     help="evaluate only the first N configurations")
    dse.add_argument("--budget", type=int, default=None,
                     help="PE budget (default 16384)")
    dse.add_argument("--workers", type=int, default=None,
                     help="evaluate configurations over N processes "
                          "(default $REPRO_SWEEP_WORKERS or 1)")
    dse.add_argument("--observe", default=None, metavar="DIR",
                     help="write a Perfetto trace of per-worker spans "
                          "to DIR/trace.json")
    dse.set_defaults(handler=cmd_dse)

    binding = sub.add_parser("binding",
                             help="Section 2.2 binding-affinity study")
    binding.add_argument("--seed", type=int, default=2022)
    binding.set_defaults(handler=cmd_binding)

    embed = sub.add_parser("embed", help="embed protein sequences")
    embed.add_argument("sequences", nargs="+")
    embed.add_argument("--functional", action="store_true",
                       help="run through the simulated bf16/LUT datapath")
    embed.set_defaults(handler=cmd_embed)

    zoo = sub.add_parser("zoo", help="list registered model scales")
    zoo.set_defaults(handler=cmd_zoo)

    reliability = sub.add_parser(
        "reliability",
        help="fault-injection campaign and degraded-mode accounting")
    reliability.add_argument("--fault-rate", type=float, default=0.05)
    reliability.add_argument("--seed", type=int, default=2022)
    reliability.add_argument("--instances", type=int, default=4)
    reliability.add_argument("--batch", type=int, default=32)
    reliability.add_argument("--seq-len", type=int, default=128)
    reliability.add_argument("--sweep", action="store_true",
                             help="sweep fault rates and print the "
                                  "availability/goodput curve")
    reliability.add_argument("--workers", type=int, default=None,
                             help="fan --sweep rate points out over N "
                                  "processes (default $REPRO_SWEEP_WORKERS "
                                  "or 1)")
    reliability.add_argument("--observe", default=None, metavar="DIR",
                             help="dump serving metrics per rate point "
                                  "to DIR/metrics.jsonl (implies serial "
                                  "instrumented runs)")
    reliability.set_defaults(handler=cmd_reliability)

    fleet = sub.add_parser(
        "fleet",
        help="fleet simulation: chaos scenarios over racks of instances")
    fleet.add_argument("--scenario", default="rack_power_loss",
                       help="chaos scenario name, 'none' (clean run), or "
                            "'all' (the full campaign table)")
    fleet.add_argument("--list", action="store_true",
                       help="list chaos scenarios for this fleet and exit")
    fleet.add_argument("--racks", type=int, default=2)
    fleet.add_argument("--hosts-per-rack", type=int, default=2)
    fleet.add_argument("--instances-per-host", type=int, default=4)
    fleet.add_argument("--heterogeneous", action="store_true",
                       help="mix calibrated A100/TPU baselines into the "
                            "fleet as schedulable capacity")
    fleet.add_argument("--hardware", default="BestPerf",
                       help="ProSE configuration for prose-backed "
                            "instances")
    fleet.add_argument("--batch", type=int, default=256)
    fleet.add_argument("--seq-len", type=int, default=128)
    fleet.add_argument("--reference-batch", type=int, default=8,
                       help="shard size used to calibrate backend rates")
    fleet.add_argument("--seed", type=int, default=2022)
    fleet.add_argument("--tiny", action="store_true",
                       help="use the tiny model config (fast smoke runs)")
    fleet.add_argument("--link-transient-rate", type=float, default=0.01,
                       help="background fabric transient probability per "
                            "dispatch")
    fleet.add_argument("--min-capacity", type=float, default=0.25,
                       help="brownout floor as a fraction of nominal "
                            "capacity (0 disables load shedding)")
    fleet.add_argument("--breaker-failures", type=int, default=3,
                       help="hard failures before the circuit breaker "
                            "quarantines an instance (0 disables)")
    fleet.add_argument("--per-instance", action="store_true",
                       help="print the per-instance outcome table")
    fleet.add_argument("--observe", default=None, metavar="DIR",
                       help="attach a live monitor; write the recovery "
                            "timeline, metrics, dashboard and alert "
                            "report into DIR")
    fleet.add_argument("--workers", type=int, default=None,
                       help="fan --scenario all out over N processes "
                            "(default $REPRO_SWEEP_WORKERS or 1)")
    fleet.set_defaults(handler=cmd_fleet)

    trace = sub.add_parser(
        "trace",
        help="run an instrumented workload; write a Perfetto trace "
             "and a metrics dump")
    trace.add_argument("--workload", default="schedule",
                       choices=["schedule", "system", "serving",
                                "functional", "all"],
                       help="which instrumented path to trace")
    trace.add_argument("--hardware", default="BestPerf")
    trace.add_argument("--batch", type=int, default=8)
    trace.add_argument("--seq-len", type=int, default=128)
    trace.add_argument("--threads", type=int, default=None)
    trace.add_argument("--instances", type=int, default=4,
                       help="instances for the system workload")
    trace.add_argument("--sequences", type=int, default=32,
                       help="library size for the serving workload")
    trace.add_argument("--seed", type=int, default=2022)
    trace.add_argument("--observe", default=".", metavar="DIR",
                       help="directory for trace.json and metrics.jsonl "
                            "(default: the current directory)")
    trace.add_argument("--ascii", action="store_true",
                       help="also print an ASCII timeline")
    trace.add_argument("--width", type=int, default=100,
                       help="ASCII timeline width")
    trace.set_defaults(handler=cmd_trace)

    analyze = sub.add_parser(
        "analyze",
        help="trace analytics: critical path, utilization attribution, "
             "run-to-run regression diff")
    analyze.add_argument("--trace", required=True, metavar="JSON",
                         help="exported Chrome-trace JSON to analyze")
    analyze.add_argument("--against", default=None, metavar="JSON",
                         help="baseline trace; adds a span-attributed "
                              "latency diff")
    analyze.add_argument("--root", default=None,
                         help="anchor span name (default: the run/fleet "
                              "root span)")
    analyze.add_argument("--top", type=int, default=10,
                         help="rows per table (default 10)")
    analyze.add_argument("--format", default="ascii",
                         choices=["ascii", "json", "perfetto"],
                         help="ascii tables, canonical JSON, or a "
                              "Perfetto re-export with the critical "
                              "path highlighted on its own track")
    analyze.add_argument("--out", default=None,
                         help="also write the report here (for "
                              "--format perfetto: the trace path, "
                              "default analysis.json)")
    analyze.set_defaults(handler=cmd_analyze)
    return parser


def _print_overview(parser: argparse.ArgumentParser) -> None:
    """Subcommand list with one-line descriptions (no-args invocation)."""
    print(f"{parser.prog} {__version__} — {parser.description}")
    print()
    print("subcommands:")
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction))
    for choice in subparsers.choices:
        help_text = next(
            (pseudo.help for pseudo in subparsers._choices_actions
             if pseudo.dest == choice), "")
        print(f"  {choice:<12s} {help_text}")
    print()
    print(f"run '{parser.prog} <subcommand> --help' for options")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        _print_overview(parser)
        return 0
    _check_args(args)
    return args.handler(args)


def _model_config(args: argparse.Namespace) -> BertConfig:
    """The encoder a command runs at ``--seq-len``."""
    if args.command == "reliability":
        return protein_bert_tiny(num_layers=2, hidden_size=128, num_heads=4,
                                 intermediate_size=512, max_position=2048)
    if args.command == "fleet" and args.tiny:
        return protein_bert_tiny()
    return protein_bert_base()


def _check_args(args: argparse.Namespace) -> None:
    """Reject out-of-range input in one line, before anything runs."""
    for dest in ("workers", "limit", "budget", "width", "batch", "seq_len",
                 "threads", "instances", "racks", "hosts_per_rack",
                 "instances_per_host", "reference_batch"):
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise SystemExit(f"--{dest.replace('_', '-')} must be at "
                             f"least 1, got {value}")
    for dest in ("fault_rate", "min_capacity", "link_transient_rate"):
        value = getattr(args, dest, None)
        if value is not None and not 0.0 <= value <= 1.0:
            raise SystemExit(f"--{dest.replace('_', '-')} must be in "
                             f"[0, 1], got {value}")
    # --seq-len reaches the encoder except on trace's functional workload
    # (which caps it) and serving (which draws its own lengths), fleet
    # --list and --scenario all, and reliability --sweep.
    if (getattr(args, "seq_len", None) is not None
            and getattr(args, "workload", None) not in ("functional",
                                                         "serving")
            and not getattr(args, "list", False)
            and getattr(args, "scenario", None) != "all"
            and not getattr(args, "sweep", False)):
        limit = _model_config(args).max_position
        if args.seq_len > limit:
            raise SystemExit(f"--seq-len must be at most {limit} (the "
                             f"model's max_position), got {args.seq_len}")
    # --seed seeds numpy except on fleet and trace's schedule and system
    # workloads, which take any integer.
    if (getattr(args, "seed", 0) < 0 and args.command != "fleet"
            and getattr(args, "workload", None) not in ("schedule",
                                                         "system")):
        raise SystemExit(f"--seed must be at least 0, got {args.seed}")
    if args.command == "embed":
        tokenizer = ProteinTokenizer()
        for sequence in args.sequences:
            if not is_valid_sequence(sequence):
                raise SystemExit(f"not a protein sequence: {sequence!r}")
            tokens = len(tokenizer.encode(sequence).ids)
            if tokens > SMALL_CONFIG.max_position:
                raise SystemExit(
                    f"a sequence of {len(sequence)} residues encodes to "
                    f"{tokens} tokens, more than the model's max_position "
                    f"{SMALL_CONFIG.max_position}")
    if getattr(args, "breaker_failures", 0) < 0:
        raise SystemExit("--breaker-failures must be at least 0, got "
                         f"{args.breaker_failures}")
    # `embed` takes its sequences as a list of strings, not a count.
    if args.command == "trace" and args.sequences < 1:
        raise SystemExit(f"--sequences must be at least 1, got "
                         f"{args.sequences}")
    if args.command == "reliability" and args.batch < args.instances:
        raise SystemExit(f"--batch must be at least --instances "
                         f"({args.instances}), got {args.batch}")
    if args.command == "fleet":
        from .fleet import SCENARIO_BUILDERS

        names = ("none", "all") + tuple(SCENARIO_BUILDERS)
        if args.scenario not in names:
            raise SystemExit(f"unknown scenario '{args.scenario}'; "
                             f"choose from: {', '.join(names)}")


if __name__ == "__main__":
    sys.exit(main())
