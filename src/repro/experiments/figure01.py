"""Figure 1 — BERT-style inference power efficiency vs sequence length.

Inferences/second/Watt for the A100, TPUv2, TPUv3, and ProSE as input
length grows from ~30 (human-language BERT) to 2048 tokens (Protein BERT).
The paper's claims to reproduce: efficiency decreases dramatically with
length on every platform; ProSE holds roughly an order of magnitude over
commodity platforms at short lengths; and past ~300-500 tokens the
commodity platforms fall below 1 inference/second/Watt while ProSE stays
usable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..baselines.gpu import a100
from ..baselines.roofline import best_batch_for_length
from ..baselines.tpu import tpu_v2, tpu_v3
from ..core.engine import ProSEEngine
from ..model.config import BertConfig, protein_bert_base

#: Default lengths swept (the paper's x-axis reaches ~2200).
DEFAULT_LENGTHS: Tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class EfficiencyPoint:
    """One (system, length) efficiency sample."""

    system: str
    seq_len: int
    efficiency: float          # inferences / second / Watt
    throughput: float          # inferences / second


@dataclass(frozen=True)
class Figure1Result:
    """All four efficiency curves."""

    points: Tuple[EfficiencyPoint, ...]

    def efficiency(self, system: str, seq_len: int) -> float:
        for point in self.points:
            if point.system == system and point.seq_len == seq_len:
                return point.efficiency
        raise KeyError((system, seq_len))

    @property
    def systems(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            if point.system not in seen:
                seen.append(point.system)
        return seen


def run(config: Optional[BertConfig] = None,
        lengths: Sequence[int] = DEFAULT_LENGTHS,
        prose_batch: int = 64) -> Figure1Result:
    """Regenerate the Figure 1 series.

    Args:
        config: model configuration.
        lengths: sequence lengths to sweep.
        prose_batch: ProSE simulation batch (paper: 128; smaller is faster
            and changes throughput by <5% once threads saturate).
    """
    config = config or protein_bert_base()
    engine = ProSEEngine(model_config=config)
    points: List[EfficiencyPoint] = []
    for system, device in (("A100", a100()), ("TPUv2", tpu_v2()),
                           ("TPUv3", tpu_v3())):
        for seq_len in lengths:
            batch = best_batch_for_length(seq_len)
            throughput = device.throughput(config, batch, seq_len,
                                           accelerated_only=False)
            points.append(EfficiencyPoint(
                system=system, seq_len=seq_len,
                efficiency=throughput / device.spec.tdp_watts,
                throughput=throughput))
    for seq_len in lengths:
        report = engine.simulate(batch=prose_batch, seq_len=seq_len)
        points.append(EfficiencyPoint(
            system="ProSE", seq_len=seq_len,
            efficiency=report.efficiency,
            throughput=report.throughput))
    return Figure1Result(points=tuple(points))


def format_result(result: Figure1Result) -> str:
    """Render the four curves as an aligned table."""
    lengths = sorted({p.seq_len for p in result.points})
    lines = [f"{'seq':>6s} " + " ".join(f"{s:>10s}" for s in result.systems)]
    for seq_len in lengths:
        cells = " ".join(
            f"{result.efficiency(system, seq_len):10.3f}"
            for system in result.systems)
        lines.append(f"{seq_len:6d} {cells}")
    return "\n".join(lines)
