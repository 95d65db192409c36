"""The benchmark's four workloads, their seeded op streams and checks.

A workload is a fixed set of fixtures built in :meth:`Workload.setup`
plus an endless stream of *blocks*: ``block(i)`` is a deterministic
function of ``(seed, i)``.  A block is the stratum the timed phase
measures in whole: every block of a workload does (nearly) the same
amount of work in a seed-chosen order or on seed-chosen content, so a
run's throughput and median depend on the program, not on which inputs
a short run happened to draw.

Each :class:`Op` is a closed-loop request: the runner calls ``run``,
then ``check`` on the result.  Exact results (schedules, design points,
chaos replays) are checked against ``golden.json``; seed-dependent ones
by invariants.  A check returns an error message, or ``None``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerated_model import AcceleratedProteinBert
from repro.arch.config import HardwareConfig, table4_configs
from repro.binding.experiment import default_extractor_config
from repro.binding.features import FeatureExtractor
from repro.core import ProSEEngine
from repro.core.results import InferenceReport
from repro.dse.explorer import DesignSpaceExplorer, DseResult
from repro.dse.space import space_size
from repro.experiments.chaos_campaign import DEFAULT_LINK_TRANSIENT_RATE
from repro.experiments.figure17 import DEFAULT_BUDGETS
from repro.fleet import (
    SCENARIO_BUILDERS,
    FleetReport,
    FleetSimulator,
    build_fleet,
    build_scenario,
)
from repro.model.bert import ProteinBert
from repro.model.config import protein_bert_base, protein_bert_tiny
from repro.model.weights import pretrained_like_weights
from repro.monitor import fleet_monitor, serving_monitor
from repro.parallel.cache import clear_caches
from repro.parallel.memo import cached_schedule
from repro.proteins.tokenizer import ProteinTokenizer
from repro.proteins.workloads import bucket_batches, uniprot_like_workload
from repro.reliability import (
    DegradationPolicy,
    FaultModel,
    FaultRates,
    derive_task_seed,
)
from repro.sched.orchestrator import Orchestrator, ScheduleResult
from repro.system.serving import CampaignSimulator
from repro.telemetry import MetricsRegistry, Tracer, analyze_trace, build_rollup

#: ``layer(name)`` returns a context manager bracketing a layer call.
Layer = Callable[[str], object]


def no_layer(name: str) -> object:
    """The untimed-phase stand-in for :meth:`probe.Probe.layer`."""
    return nullcontext()


@dataclass(frozen=True)
class Twin:
    """The unobserved twin of an op's observed layer call (traced run)."""

    layer: str
    into: str
    run: Callable[[], object]


@dataclass(frozen=True)
class Op:
    """One closed-loop request.

    Attributes:
        label: names the inputs (also the op span's name).
        run: performs the request; takes the ``layer`` bracket.
        check: error message for a wrong result, else ``None``.
        items: work done, in the workload's throughput unit.
        counts: per-layer counters read off the result (traced run).
        twin: the unobserved twin the traced run times after the op.
    """

    label: str
    run: Callable[[Layer], object]
    check: Callable[[object], Optional[str]]
    items: float = 1.0
    counts: Optional[Callable[[object], Dict[str, float]]] = None
    twin: Optional[Twin] = None


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _mismatch(what: str, got: Dict[str, object],
              want: Optional[Dict[str, object]]) -> Optional[str]:
    """The first field of ``got`` that differs from the golden record."""
    if want is None:
        return f"{what}: no golden record"
    for field, value in got.items():
        if want.get(field) != value:
            shown = ("" if isinstance(value, list) else
                     f": {value!r}, golden {want.get(field)!r}")
            return f"{what}: {field} differs{shown}"
    return None


# -- records pinned in golden.json -------------------------------------------

def schedule_record(schedule: ScheduleResult) -> Dict[str, object]:
    return {"makespan_seconds": schedule.makespan_seconds,
            "total_dispatches": schedule.total_dispatches,
            "total_stream_bytes": schedule.total_stream_bytes,
            "bottleneck": schedule.bottleneck}


def inference_record(report: InferenceReport) -> Dict[str, object]:
    record = schedule_record(report.schedule)
    record["system_power_w"] = report.power.system_power_w
    return record


def dse_record(result: DseResult) -> Dict[str, object]:
    return {"points": [[p.config.name, p.runtime_seconds, p.power_watts,
                        p.area_mm2] for p in result.points],
            "best_perf": result.best_perf.config.name,
            "most_power_efficient": result.most_power_efficient.config.name,
            "most_area_efficient": result.most_area_efficient.config.name}


def chaos_record(report: FleetReport) -> Dict[str, object]:
    return {"makespan_seconds": report.makespan_seconds,
            "goodput": report.goodput,
            "alerts": report.slo.alerts}


def point_key(config: str, seq_len: int, batch: int) -> str:
    return f"{config}|{seq_len}|{batch}"


# -- workloads ----------------------------------------------------------------

class Workload:
    """Base class: fixtures from :meth:`setup`, ops from :meth:`block`."""

    name = ""
    #: What one throughput item is.
    item = "op"
    #: Report latency per item (``dse_sweep``) instead of per op.
    latency_per_item = False
    #: Blocks the traced run measures (fixed, so its counts repeat).
    traced_blocks = 1

    def __init__(self, seed: int, golden: Dict[str, Dict]) -> None:
        self.seed = seed
        self.golden = golden

    def setup(self) -> None:
        """Build fixtures and run the untimed warm-up."""

    def block(self, index: int) -> List[Op]:
        raise NotImplementedError


def _configs() -> Dict[str, HardwareConfig]:
    """The paper's Table 4 configurations, by name."""
    return {config.name: config for config in table4_configs()}


class PaperPoint(Workload):
    """Cold single-inference simulations over the Table 4 configurations."""

    name = "paper_point"
    SEQ_LENS = (64, 128, 256, 512, 1024)
    BATCHES = (8, 32, 128)

    def setup(self) -> None:
        self.engines = {name: ProSEEngine(config)
                        for name, config in _configs().items()}
        self.points = [(name, seq, batch) for name in self.engines
                       for seq in self.SEQ_LENS for batch in self.BATCHES]
        for engine in self.engines.values():
            engine.simulate(batch=self.BATCHES[0], seq_len=self.SEQ_LENS[0])

    def block(self, index: int) -> List[Op]:
        order = _rng(self.seed, 0, index).permutation(len(self.points))
        return [self._op(*self.points[i]) for i in order]

    def _op(self, config: str, seq_len: int, batch: int) -> Op:
        engine = self.engines[config]
        key = point_key(config, seq_len, batch)

        def run(layer: Layer) -> InferenceReport:
            with layer("parallel.cache"):
                clear_caches()
            return engine.simulate(batch=batch, seq_len=seq_len)

        def check(report: InferenceReport) -> Optional[str]:
            return _mismatch(key, inference_record(report),
                             self.golden["schedule"].get(key))

        return Op(label=f"simulate[{key}]", run=run, check=check)

    def golden_records(self) -> Dict[str, Dict[str, object]]:
        return {point_key(*point):
                inference_record(self._op(*point).run(no_layer))
                for point in self.points}


class DseSweep(Workload):
    """Figure 17's design-space sweeps, one cold pass per PE budget."""

    name = "dse_sweep"
    item = "design point"
    latency_per_item = True
    BATCH = 32
    SEQ_LEN = 512

    def __init__(self, seed: int, golden: Dict[str, Dict],
                 budgets: Sequence[int] = DEFAULT_BUDGETS) -> None:
        super().__init__(seed, golden)
        self.budgets = tuple(budgets)

    def setup(self) -> None:
        self.explorer = DesignSpaceExplorer(batch=self.BATCH,
                                            seq_len=self.SEQ_LEN)
        self.explorer.a100_runtime()
        self.explorer.sweep(pe_budget=self.budgets[0], limit=2, workers=1)

    def block(self, index: int) -> List[Op]:
        order = _rng(self.seed, 0, index).permutation(len(self.budgets))
        return [self._op(self.budgets[i]) for i in order]

    def _sweep(self, budget: int, layer: Layer = no_layer) -> DseResult:
        with layer("parallel.cache"):
            clear_caches()
        return self.explorer.sweep(pe_budget=budget, workers=1)

    def _op(self, budget: int) -> Op:
        def check(result: DseResult) -> Optional[str]:
            return _mismatch(f"dse {budget}", dse_record(result),
                             self.golden["dse"].get(str(budget)))

        return Op(label=f"sweep[pe_budget={budget}]",
                  run=lambda layer: self._sweep(budget, layer), check=check,
                  items=float(space_size(budget)))

    def golden_records(self) -> Dict[str, Dict[str, object]]:
        return {str(budget): dse_record(self._sweep(budget))
                for budget in self.budgets}


class Observed(Workload):
    """Observed runs: explained schedules, monitored chaos and campaigns.

    A block is three *explain* ops (one per batch size), one *chaos* op
    and one *campaign* op, in seeded order.  Caches are never cleared.
    """

    name = "observed"
    traced_blocks = 6
    SEQ_LENS = (128, 256, 512)
    BATCHES = (8, 32, 128)
    FLEET_BATCH = 64
    LIBRARY = 64
    #: Root seed of the chaos fault models, as in the Chaos experiment.
    CHAOS_SEED = 2022

    def setup(self) -> None:
        model = protein_bert_base()
        self.model = model
        self.orchestrators = {name: Orchestrator(config)
                              for name, config in _configs().items()}
        self.pairs = [(name, seq) for name in self.orchestrators
                      for seq in self.SEQ_LENS]
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        self.fleets = {}
        for name in SCENARIO_BUILDERS:
            simulator = FleetSimulator(
                topology, model_config=protein_bert_tiny(),
                fault_model=FaultModel(
                    FaultRates(link_transient=DEFAULT_LINK_TRANSIENT_RATE),
                    seed=derive_task_seed(self.CHAOS_SEED, name)),
                policy=DegradationPolicy(min_capacity_fraction=0.25,
                                         circuit_breaker_failures=3),
                seq_len=64, reference_batch=4)
            self.fleets[name] = (simulator, build_scenario(name, topology))
        self.campaign = CampaignSimulator(model_config=model)
        self.library = uniprot_like_workload(count=self.LIBRARY,
                                             seed=self.seed)
        batches = bucket_batches(self.library, self.campaign.buckets,
                                 max_batch=self.campaign.max_batch)
        self.campaign_batches = len(batches)
        # Warm-up: every trace shape the explain ops use, every campaign
        # schedule, and one pass of each chaos and analytics code path.
        first = next(iter(self.orchestrators.values()))
        for seq in self.SEQ_LENS:
            for batch in self.BATCHES:
                first.run(model, batch=batch, seq_len=seq)
        self.campaign_seconds = sum(
            cached_schedule(self.campaign.hardware, model, batch=batch,
                            seq_len=length).makespan_seconds
            for length, batch in batches)
        for name in self.fleets:
            self._chaos(name).run(no_layer)
        self._campaign().run(no_layer)
        self._explain(self.BATCHES[0], *self.pairs[0]).run(no_layer)

    def block(self, index: int) -> List[Op]:
        ops = [self._explain(batch, *self._pair(batch, index))
               for batch in self.BATCHES]
        ops.append(self._chaos(self._scenario(index)))
        ops.append(self._campaign())
        order = _rng(self.seed, 0, index).permutation(len(ops))
        return [ops[i] for i in order]

    def _pair(self, batch: int, index: int) -> Tuple[str, int]:
        """Each batch size walks seeded permutations of (config, seq)."""
        cycle, position = divmod(index, len(self.pairs))
        order = _rng(self.seed, 1, batch, cycle).permutation(len(self.pairs))
        return self.pairs[order[position]]

    def _scenario(self, index: int) -> str:
        names = list(self.fleets)
        cycle, position = divmod(index, len(names))
        return names[_rng(self.seed, 2, cycle).permutation(len(names))[position]]

    def _explain(self, batch: int, config: str, seq_len: int) -> Op:
        orchestrator = self.orchestrators[config]
        key = point_key(config, seq_len, batch)

        def run(layer: Layer):
            tracer, metrics = Tracer(), MetricsRegistry()
            schedule = orchestrator.run(self.model, batch=batch,
                                        seq_len=seq_len, tracer=tracer,
                                        metrics=metrics)
            with layer("telemetry.analyze"):
                analysis = analyze_trace(tracer)
                build_rollup(tracer)
            return schedule, tracer, analysis

        def check(result) -> Optional[str]:
            schedule, _, analysis = result
            error = _mismatch(key, schedule_record(schedule),
                              self.golden["schedule"].get(key))
            if error:
                return error
            if not math.isclose(analysis.path.total_seconds,
                                schedule.makespan_seconds, rel_tol=1e-9):
                return (f"{key}: critical path {analysis.path.total_seconds}"
                        f" != makespan {schedule.makespan_seconds}")
            verdicts = [phase.bound_by
                        for phase in analysis.utilization.phases]
            if verdicts != [schedule.bottleneck]:
                return (f"{key}: verdicts {verdicts} != bottleneck "
                        f"{schedule.bottleneck}")
            return None

        def counts(result) -> Dict[str, float]:
            spans = float(len(result[1]))
            return {"telemetry.spans": spans,
                    "telemetry.analyze.spans": spans}

        return Op(label=f"explain[{key}]", run=run, check=check,
                  counts=counts,
                  twin=Twin("sched", "telemetry",
                            lambda: orchestrator.run(self.model, batch=batch,
                                                     seq_len=seq_len)))

    def _chaos(self, name: str) -> Op:
        simulator, scenario = self.fleets[name]

        def run(layer: Layer) -> Tuple[FleetReport, Tracer]:
            tracer = Tracer()
            with layer("monitor"):
                monitor = fleet_monitor()
            return simulator.run(batch=self.FLEET_BATCH, scenario=scenario,
                                 tracer=tracer, monitor=monitor), tracer

        def check(result) -> Optional[str]:
            return _mismatch(f"chaos {name}", chaos_record(result[0]),
                             self.golden["chaos"].get(name))

        def counts(result) -> Dict[str, float]:
            report, tracer = result
            return {"telemetry.spans": float(len(tracer)),
                    "monitor.alerts": float(report.slo.alerts)}

        return Op(label=f"chaos[{name}]", run=run, check=check,
                  counts=counts,
                  twin=Twin("fleet", "monitor",
                            lambda: simulator.run(batch=self.FLEET_BATCH,
                                                  scenario=scenario,
                                                  tracer=Tracer())))

    def _campaign(self) -> Op:
        def run(layer: Layer):
            tracer = Tracer()
            with layer("monitor"):
                monitor = serving_monitor()
            return self.campaign.run_on_prose(
                self.library, tracer=tracer, metrics=MetricsRegistry(),
                monitor=monitor), tracer

        def check(result) -> Optional[str]:
            report = result[0]
            if report.total_seconds != self.campaign_seconds:
                return (f"campaign: total {report.total_seconds} != sum of "
                        f"batch schedules {self.campaign_seconds}")
            if report.sequences != len(self.library):
                return f"campaign: {report.sequences} sequences served"
            return None

        def counts(result) -> Dict[str, float]:
            report, tracer = result
            return {"telemetry.spans": float(len(tracer)),
                    "monitor.alerts": float(report.slo.alerts),
                    "system.serving.batches": float(self.campaign_batches)}

        return Op(label=f"campaign[{self.LIBRARY} sequences]", run=run,
                  check=check, counts=counts,
                  twin=Twin("system.serving", "monitor",
                            lambda: self.campaign.run_on_prose(
                                self.library, tracer=Tracer(),
                                metrics=MetricsRegistry())))

    def golden_records(self) -> Dict[str, Dict[str, object]]:
        return {name: chaos_record(self._chaos(name).run(no_layer)[0])
                for name in self.fleets}


class Embed(Workload):
    """Protein embedding: fp32 reference vs the bf16 functional datapath.

    An op takes one sequence from each length octile of a seeded
    UniProt-like library, embeds the eight as one padded batch through
    the reference extractor, then each alone through the bf16 + LUT
    datapath, and checks that the pooled features agree.
    """

    name = "embed"
    item = "residue"
    traced_blocks = 2
    BATCH = 8
    MAX_RESIDUES = 510
    LIBRARY = 256
    WEIGHT_SEED = 2022
    MIN_CORRELATION = 0.999

    def setup(self) -> None:
        config = default_extractor_config()
        model = ProteinBert(config, weights=pretrained_like_weights(
            config, seed=self.WEIGHT_SEED))
        self.extractor = FeatureExtractor(model, batch_size=self.BATCH)
        self.accelerated = AcceleratedProteinBert(model)
        self.tokenizer = ProteinTokenizer()
        library = uniprot_like_workload(count=self.LIBRARY, seed=self.seed)
        sequences = sorted((item.sequence[:self.MAX_RESIDUES]
                            for item in library.items), key=len)
        size = len(sequences) // self.BATCH
        self.strata = [sequences[j * size:(j + 1) * size]
                       for j in range(self.BATCH)]
        self._op(sequences[:1], "warm-up").run(no_layer)

    def block(self, index: int) -> List[Op]:
        cycle, position = divmod(index, len(self.strata[0]))
        picks = [stratum[_rng(self.seed, 1, j, cycle)
                         .permutation(len(stratum))[position]]
                 for j, stratum in enumerate(self.strata)]
        return [self._op(picks, f"embed[block {index}]")]

    def _op(self, sequences: List[str], label: str) -> Op:
        residues = sum(len(sequence) for sequence in sequences)
        accelerated = self.accelerated

        def run(layer: Layer):
            reference = self.extractor.extract(sequences)
            stats = accelerated.stats
            before = (stats.mac_operations, stats.tiles)
            pooled = np.stack([
                accelerated.forward(
                    self.tokenizer.encode(sequence).ids[None, :])
                .mean(axis=1)[0] for sequence in sequences])
            return (reference, pooled, stats.mac_operations - before[0],
                    stats.tiles - before[1])

        def check(result) -> Optional[str]:
            reference, pooled = result[0], result[1]
            if reference.shape != pooled.shape:
                return f"{label}: shapes {reference.shape} {pooled.shape}"
            for i, (ref, bf16) in enumerate(zip(reference, pooled)):
                correlation = float(np.corrcoef(ref, bf16)[0, 1])
                if not correlation >= self.MIN_CORRELATION:
                    return (f"{label}: sequence {i} bf16/ref correlation "
                            f"{correlation:.6f} < {self.MIN_CORRELATION}")
            return None

        def counts(result) -> Dict[str, float]:
            return {"model.residues": float(residues),
                    "arch.functional.mac_operations": float(result[2]),
                    "arch.functional.tiles": float(result[3])}

        return Op(label=label, run=run, check=check, items=float(residues),
                  counts=counts)


WORKLOADS = {cls.name: cls for cls in (PaperPoint, DseSweep, Observed, Embed)}
