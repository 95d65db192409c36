"""Figure 4 — impact of input length and heterogeneity on runtime.

Compares ProSE's heterogeneous systolic-array mix against the
resource-equivalent homogeneous design (4× 64×64 arrays, 16K PEs) across
sequence lengths.  Claims to reproduce: runtime grows superlinearly with
length on both; the two designs are close at short lengths; and beyond
~300 tokens the homogeneous design's slope is much steeper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..arch.config import best_perf, homogeneous
from ..model.config import BertConfig, protein_bert_base
from ..sched.orchestrator import Orchestrator

DEFAULT_LENGTHS: Tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class RuntimePoint:
    """Per-inference latency of one design at one sequence length."""

    design: str
    seq_len: int
    seconds_per_inference: float


@dataclass(frozen=True)
class Figure4Result:
    points: Tuple[RuntimePoint, ...]

    def runtime(self, design: str, seq_len: int) -> float:
        for point in self.points:
            if point.design == design and point.seq_len == seq_len:
                return point.seconds_per_inference
        raise KeyError((design, seq_len))

    def ratio(self, seq_len: int) -> float:
        """Homogeneous / heterogeneous runtime at one length."""
        return (self.runtime("Homogeneous", seq_len)
                / self.runtime("ProSE", seq_len))


def run(config: Optional[BertConfig] = None,
        lengths: Sequence[int] = DEFAULT_LENGTHS,
        batch: int = 64) -> Figure4Result:
    """Regenerate the Figure 4 curves."""
    config = config or protein_bert_base()
    points: List[RuntimePoint] = []
    for design, hardware in (("ProSE", best_perf()),
                             ("Homogeneous", homogeneous())):
        orchestrator = Orchestrator(hardware)
        for seq_len in lengths:
            schedule = orchestrator.run(config, batch=batch, seq_len=seq_len)
            points.append(RuntimePoint(
                design=design, seq_len=seq_len,
                seconds_per_inference=schedule.makespan_seconds / batch))
    return Figure4Result(points=tuple(points))


def format_result(result: Figure4Result) -> str:
    lengths = sorted({p.seq_len for p in result.points})
    lines = [f"{'seq':>6s} {'ProSE ms':>10s} {'Homog ms':>10s} {'ratio':>6s}"]
    for seq_len in lengths:
        prose = result.runtime("ProSE", seq_len) * 1e3
        homog = result.runtime("Homogeneous", seq_len) * 1e3
        lines.append(f"{seq_len:6d} {prose:10.3f} {homog:10.3f} "
                     f"{result.ratio(seq_len):6.2f}")
    return "\n".join(lines)
