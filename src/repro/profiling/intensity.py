"""Operational-intensity analysis of the three dataflows.

Why is Dataflow 3 the hard one?  Because its operational intensity
(FLOPs per streamed byte) is an order of magnitude below Dataflow 1/2's:
the attention dot products have k = 64 and their softmax intermediates
round-trip the host.  This module computes per-dataflow intensity and
compares it against each platform's machine balance (peak FLOPs per
byte of feed bandwidth) — the roofline lens on the paper's Section 3.2
"ProSE Efficiencies" discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..arch.config import HardwareConfig, best_perf
from ..dataflow.builder import build_graph_for
from ..dataflow.patterns import DataflowKind
from ..model.config import BertConfig, protein_bert_base

#: Bytes per streamed element.
ELEMENT_BYTES = 2


@dataclass(frozen=True)
class IntensityPoint:
    """Aggregate FLOPs and traffic of one dataflow kind."""

    kind: DataflowKind
    flops: int
    stream_bytes: int

    @property
    def intensity(self) -> float:
        """FLOPs per byte of host-link traffic."""
        return self.flops / self.stream_bytes if self.stream_bytes else 0.0


def dataflow_intensities(config: Optional[BertConfig] = None,
                         batch: int = 4, seq_len: int = 512
                         ) -> Dict[DataflowKind, IntensityPoint]:
    """Per-kind operational intensity for one inference workload."""
    config = config or protein_bert_base()
    graph = build_graph_for(config, batch=batch, seq_len=seq_len)
    flops: Dict[DataflowKind, int] = {kind: 0 for kind in DataflowKind}
    bytes_: Dict[DataflowKind, int] = {kind: 0 for kind in DataflowKind}
    for _, dataflow in graph.dataflows:
        flops[dataflow.kind] += dataflow.flops
        bytes_[dataflow.kind] += dataflow.stream_bytes(ELEMENT_BYTES)
    return {kind: IntensityPoint(kind=kind, flops=flops[kind],
                                 stream_bytes=bytes_[kind])
            for kind in DataflowKind}


def machine_balance(hardware: Optional[HardwareConfig] = None) -> float:
    """ProSE's peak FLOPs per byte of link bandwidth.

    Dataflows with intensity below this are link-bound on the instance.
    """
    hardware = hardware or best_perf()
    peak_flops = (hardware.total_pes * 2 * hardware.matmul_frequency)
    return peak_flops / hardware.link.total_bandwidth


def intensity_report(config: Optional[BertConfig] = None,
                     hardware: Optional[HardwareConfig] = None,
                     seq_len: int = 512) -> str:
    """Side-by-side intensities vs the instance's machine balance."""
    points = dataflow_intensities(config, seq_len=seq_len)
    balance = machine_balance(hardware)
    lines = [f"machine balance (BestPerf @ link): {balance:.1f} FLOP/B",
             f"{'dataflow':>11s} {'GFLOP':>8s} {'MB':>8s} "
             f"{'FLOP/B':>8s} {'bound':>8s}"]
    for kind in DataflowKind:
        point = points[kind]
        bound = "compute" if point.intensity > balance else "link"
        lines.append(f"{kind.value:>11s} {point.flops / 1e9:8.2f} "
                     f"{point.stream_bytes / 2 ** 20:8.1f} "
                     f"{point.intensity:8.1f} {bound:>8s}")
    return "\n".join(lines)
