"""Headline — the abstract's end-to-end claims.

"ProSE performs Protein BERT inference at up to 6.9x speedup and 48x power
efficiency (performance/Watt) compared to one NVIDIA A100 GPU.  ProSE
achieves up to 5.5x (12.7x) speedup and 173x (249x) power efficiency
compared to TPUv3 (TPUv2)."

Compares BestPerf at NVLink 2.0 and BestPerf+ at NVLink 3.0 against each
commodity baseline at the paper's evaluation point (BERT-base, batch 128,
seq 512), and attributes BestPerf's energy per inference there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..arch.config import best_perf_plus
from ..core.engine import ProSEEngine
from ..physical.energy import EnergyReport, energy_report, format_energy

#: The paper's evaluation point.
BATCH = 128
SEQ_LEN = 512


@dataclass(frozen=True)
class HeadlineRow:
    """One design against one baseline at the headline operating point."""

    operating_point: str
    baseline: str
    speedup: float
    efficiency_gain: float


@dataclass(frozen=True)
class HeadlineResult:
    rows: Tuple[HeadlineRow, ...]
    #: BestPerf @ NVLink 2.0's energy decomposition at the same point.
    energy: EnergyReport


def run() -> HeadlineResult:
    """Every headline comparison: two designs x three baselines."""
    comparisons = [
        (label, engine, engine.compare(device, batch=BATCH, seq_len=SEQ_LEN))
        for label, engine in (("BestPerf@NVLink2", ProSEEngine()),
                              ("BestPerf+@NVLink3",
                               ProSEEngine(best_perf_plus())))
        for device in (engine.a100, engine.tpu_v3, engine.tpu_v2)]
    rows = tuple(HeadlineRow(operating_point=label,
                             baseline=comparison.baseline_name,
                             speedup=comparison.speedup,
                             efficiency_gain=comparison.efficiency_gain)
                 for label, _, comparison in comparisons)
    # The first comparison already simulated BestPerf at this point.
    _, base, first = comparisons[0]
    return HeadlineResult(rows=rows,
                          energy=energy_report(first.prose.schedule,
                                               base.hardware))


def format_result(result: HeadlineResult) -> str:
    lines = [f"{'operating point':>18s} {'vs':>6s} {'speedup':>8s} "
             f"{'perf/W gain':>12s}"]
    for row in result.rows:
        lines.append(f"{row.operating_point:>18s} {row.baseline:>6s} "
                     f"{row.speedup:8.2f} {row.efficiency_gain:12.1f}")
    lines += ["", "-- energy attribution, BestPerf@NVLink2 --",
              format_energy(result.energy)]
    return "\n".join(lines)
