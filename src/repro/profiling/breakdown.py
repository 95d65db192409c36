"""Runtime-breakdown profiling of Protein BERT (paper Section 2.3).

Reproduces Figure 3: the fraction of inference time each operation class
consumes on the A100 as the input sequence length grows from 32 to 2048
tokens, using the paper's per-length throughput-optimal batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import List, Optional, Sequence, Tuple

from ..baselines.gpu import a100
from ..baselines.roofline import RooflineDevice, best_batch_for_length
from ..model.config import BertConfig, protein_bert_base
from ..trace.ops import FIGURE3_CATEGORIES
from ..trace.tracer import TraceSpec, trace_model

#: The sequence lengths Figure 3 profiles.
FIGURE3_LENGTHS: Tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048)

#: Display order of the Figure 3 legend.
CATEGORY_ORDER: Tuple[str, ...] = tuple(FIGURE3_CATEGORIES)


@dataclass(frozen=True)
class BreakdownRow:
    """One column of Figure 3: the op-class shares at one length."""

    seq_len: int
    batch: int
    shares: Tuple[Tuple[str, float], ...]

    def share(self, category: str) -> float:
        for name, value in self.shares:
            if name == category:
                return value
        return 0.0

    @property
    def matmul_share(self) -> float:
        """Combined (batched + unbatched) matrix-multiply share."""
        return self.share("Matrix Multiply") + self.share("Batched Mat Mul")


def profile_breakdown(config: Optional[BertConfig] = None,
                      device: Optional[RooflineDevice] = None,
                      lengths: Sequence[int] = FIGURE3_LENGTHS,
                      batches: Optional[Sequence[int]] = None
                      ) -> List[BreakdownRow]:
    """Profile the per-category runtime shares across sequence lengths.

    Args:
        config: model configuration (default: Protein BERT base).
        device: device model to profile on (default: the A100).
        lengths: sequence lengths to sweep.
        batches: batch size per length; defaults to the paper's
            throughput-optimal A100 batches.

    Returns:
        One :class:`BreakdownRow` per length, shares summing to 1.
    """
    config = config or protein_bert_base()
    device = device or a100()
    rows: List[BreakdownRow] = []
    for index, seq_len in enumerate(lengths):
        batch = (batches[index] if batches is not None
                 else best_batch_for_length(seq_len))
        ops = trace_model(TraceSpec(config=config, batch=batch,
                                    seq_len=seq_len))
        seconds = device.category_seconds(ops)
        total = reduce(add, seconds.values(), 0)
        shares = tuple((category, seconds.get(category, 0.0) / total)
                       for category in CATEGORY_ORDER)
        rows.append(BreakdownRow(seq_len=seq_len, batch=batch,
                                 shares=shares))
    return rows


def format_breakdown(rows: Sequence[BreakdownRow]) -> str:
    """Render the breakdown as an aligned text table (Figure 3 as rows)."""
    header = f"{'seq':>6s} {'batch':>7s} " + " ".join(
        f"{name[:12]:>13s}" for name in CATEGORY_ORDER)
    lines = [header]
    for row in rows:
        cells = " ".join(f"{row.share(name) * 100:12.1f}%"
                         for name in CATEGORY_ORDER)
        lines.append(f"{row.seq_len:6d} {row.batch:7d} {cells}")
    return "\n".join(lines)


def matmul_share_bounds(rows: Sequence[BreakdownRow]) -> Tuple[float, float]:
    """(min, max) combined matmul share — the paper reports 35%-52%."""
    shares = [row.matmul_share for row in rows]
    return min(shares), max(shares)
