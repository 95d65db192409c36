"""Figure 20 — empirical roofline: performance vs link bandwidth.

Sweeps host-link bandwidth from 90 to 630 GB/s for the BestPerf and
BestPerf+ designs.  Claims to reproduce: both designs rise with bandwidth
and then saturate as their heterogeneous components become compute-bound;
BestPerf+ (more compute) saturates later — around 360 GB/s per the paper.
The block closes with each dataflow's operational intensity against
BestPerf's machine balance, the roofline reason Dataflow 3 is link-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..arch.config import HardwareConfig, best_perf, best_perf_plus
from ..arch.interconnect import custom_link
from ..core.engine import ProSEEngine
from ..model.config import BertConfig, protein_bert_base
from ..profiling.intensity import intensity_report

DEFAULT_BANDWIDTHS_GBPS: Tuple[float, ...] = (
    90, 135, 180, 270, 360, 450, 540, 630)


@dataclass(frozen=True)
class RooflinePoint:
    config_name: str
    bandwidth_gbps: float
    throughput: float
    compute_bound: bool


@dataclass(frozen=True)
class Figure20Result:
    points: Tuple[RooflinePoint, ...]
    #: :func:`~repro.profiling.intensity.intensity_report` at ``seq_len``.
    intensity: str

    def curve(self, config_name: str) -> List[RooflinePoint]:
        return [p for p in self.points if p.config_name == config_name]

    def saturation_bandwidth(self, config_name: str,
                             threshold: float = 0.97) -> float:
        """Lowest bandwidth reaching ``threshold`` of the max throughput."""
        curve = self.curve(config_name)
        peak = max(p.throughput for p in curve)
        for point in sorted(curve, key=lambda p: p.bandwidth_gbps):
            if point.throughput >= threshold * peak:
                return point.bandwidth_gbps
        return curve[-1].bandwidth_gbps


def run(config: Optional[BertConfig] = None,
        configs: Optional[Sequence[HardwareConfig]] = None,
        bandwidths_gbps: Sequence[float] = DEFAULT_BANDWIDTHS_GBPS,
        batch: int = 64, seq_len: int = 512) -> Figure20Result:
    """Regenerate the roofline curves."""
    config = config or protein_bert_base()
    configs = configs if configs is not None else (best_perf(),
                                                   best_perf_plus())
    points: List[RooflinePoint] = []
    for hardware in configs:
        for bandwidth in bandwidths_gbps:
            engine = ProSEEngine(
                hardware=hardware.with_link(custom_link(bandwidth)),
                model_config=config)
            report = engine.simulate(batch=batch, seq_len=seq_len)
            points.append(RooflinePoint(
                config_name=hardware.name,
                bandwidth_gbps=bandwidth,
                throughput=report.throughput,
                compute_bound=report.schedule.compute_bound))
    return Figure20Result(points=tuple(points),
                          intensity=intensity_report(config,
                                                     seq_len=seq_len))


def format_result(result: Figure20Result) -> str:
    names: List[str] = []
    for point in result.points:
        if point.config_name not in names:
            names.append(point.config_name)
    bandwidths = sorted({p.bandwidth_gbps for p in result.points})
    lines = [f"{'GB/s':>6s} " + " ".join(f"{n:>14s}" for n in names)]
    by_key = {(p.config_name, p.bandwidth_gbps): p for p in result.points}
    for bandwidth in bandwidths:
        cells = " ".join(
            f"{by_key[(n, bandwidth)].throughput:14.1f}" for n in names)
        lines.append(f"{bandwidth:6.0f} {cells}")
    for name in names:
        lines.append(f"{name} saturates near "
                     f"{result.saturation_bandwidth(name):.0f} GB/s")
    lines.append("-- operational intensity per dataflow --")
    lines.append(result.intensity)
    return "\n".join(lines)
