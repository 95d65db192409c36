"""Sensitivity analysis: how robust are the reproduced conclusions?

A reproduction built on calibrated models owes the reader a robustness
check: the headline conclusions (ProSE ≳4× one A100, heterogeneous beats
homogeneous, 32-ish threads suffice) should not hinge on any single
modeling knob.  This study perturbs the main free parameters — host
elementwise throughput, dispatch contention, lane partition, batch size —
and reports how the BestPerf speedup over the A100 moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..arch.config import best_perf
from ..arch.interconnect import enumerate_partitions
from ..baselines.gpu import a100
from ..model.config import BertConfig, protein_bert_base
from ..sched.host import HostModel
from ..sched.orchestrator import Orchestrator

import dataclasses


@dataclass(frozen=True)
class SensitivityPoint:
    """One perturbed operating point."""

    knob: str
    setting: str
    speedup_vs_a100: float


@dataclass(frozen=True)
class SensitivityResult:
    points: Tuple[SensitivityPoint, ...]

    @property
    def global_range(self) -> Tuple[float, float]:
        values = [p.speedup_vs_a100 for p in self.points]
        return min(values), max(values)


def run(config: Optional[BertConfig] = None, batch: int = 64,
        seq_len: int = 512) -> SensitivityResult:
    """Perturb each modeling knob one at a time around BestPerf."""
    config = config or protein_bert_base()
    baseline_throughput = a100().throughput(config, batch=batch,
                                            seq_len=seq_len,
                                            accelerated_only=True)
    points: List[SensitivityPoint] = []

    def speedup(orchestrator: Orchestrator) -> float:
        schedule = orchestrator.run(config, batch=batch, seq_len=seq_len)
        return schedule.throughput / baseline_throughput

    # Host elementwise throughput: half / nominal / double.
    for factor in (0.5, 1.0, 2.0):
        host = HostModel()
        host = HostModel(slots=host.slots,
                         elementwise_throughput=host.elementwise_throughput
                         * factor,
                         flops_throughput=host.flops_throughput * factor)
        points.append(SensitivityPoint(
            knob="host throughput", setting=f"x{factor}",
            speedup_vs_a100=speedup(Orchestrator(best_perf(),
                                                 host=host))))

    # Dispatch contention coefficient: none / nominal / triple.
    for coefficient in (0.0, 0.06, 0.18):
        points.append(SensitivityPoint(
            knob="contention", setting=f"c={coefficient}",
            speedup_vs_a100=speedup(Orchestrator(
                best_perf(), contention_coefficient=coefficient))))

    # Static lane partition: every feasible split of six lanes.
    for partition in enumerate_partitions(6):
        lanes = tuple(count for _, count in partition.lanes_by_type)
        hardware = dataclasses.replace(best_perf(), partition=partition)
        points.append(SensitivityPoint(
            knob="lane partition", setting=f"M/G/E={lanes}",
            speedup_vs_a100=speedup(Orchestrator(hardware))))

    # Batch size (thread occupancy): 32 to 256.
    for batch_size in (32, 64, 128, 256):
        schedule = Orchestrator(best_perf()).run(config, batch=batch_size,
                                                 seq_len=seq_len)
        reference = a100().throughput(config, batch=batch_size,
                                      seq_len=seq_len,
                                      accelerated_only=True)
        points.append(SensitivityPoint(
            knob="batch size", setting=str(batch_size),
            speedup_vs_a100=schedule.throughput / reference))

    return SensitivityResult(points=tuple(points))


def format_result(result: SensitivityResult) -> str:
    lines = [f"{'knob':>16s} {'setting':>14s} {'speedup':>8s}"]
    for point in result.points:
        lines.append(f"{point.knob:>16s} {point.setting:>14s} "
                     f"{point.speedup_vs_a100:8.2f}")
    low, high = result.global_range
    lines.append(f"speedup range across all perturbations: "
                 f"{low:.2f}x - {high:.2f}x")
    return "\n".join(lines)
