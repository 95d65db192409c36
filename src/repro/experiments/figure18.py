"""Figure 18 — ProSE speedup over A100 and TPUv3 vs link bandwidth.

All six Table 4 configurations evaluated at NVLink 2.0 @ 80%/90%,
NVLink 3.0 @ 80%/90%, and infinite bandwidth.  Claims to reproduce:
BestPerf/MostEfficient reach ~3.9-4.7× over the A100 and ~3.1-3.8× over
TPUv3 at NVLink 2.0; the "+" designs need faster links and plateau as
they become compute-bound; the homogeneous designs underperform even at
infinite bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.config import HardwareConfig, table4_configs
from ..arch.interconnect import LinkConfig, infinite_link, nvlink
from ..baselines.roofline import RooflineDevice
from ..core.engine import ProSEEngine
from ..model.config import BertConfig, protein_bert_base

#: The five link operating points of Figures 18/19.
def default_links() -> Tuple[LinkConfig, ...]:
    return (nvlink(2, 0.8), nvlink(2, 0.9), nvlink(3, 0.8), nvlink(3, 0.9),
            infinite_link())


@dataclass(frozen=True)
class SpeedupCell:
    """One bar of Figure 18."""

    config_name: str
    link_name: str
    baseline: str
    speedup: float


@dataclass(frozen=True)
class Figure18Result:
    cells: Tuple[SpeedupCell, ...]

    def speedup(self, config_name: str, link_name: str,
                baseline: str) -> float:
        for cell in self.cells:
            if (cell.config_name == config_name
                    and cell.link_name == link_name
                    and cell.baseline == baseline):
                return cell.speedup
        raise KeyError((config_name, link_name, baseline))

    def config_names(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.config_name not in seen:
                seen.append(cell.config_name)
        return seen


def run(config: Optional[BertConfig] = None,
        configs: Optional[Sequence[HardwareConfig]] = None,
        links: Optional[Sequence[LinkConfig]] = None,
        batch: int = 64, seq_len: int = 512,
        baselines: Tuple[str, ...] = ("A100", "TPUv3")) -> Figure18Result:
    """Regenerate the Figure 18 speedup grid."""
    config = config or protein_bert_base()
    configs = configs if configs is not None else table4_configs()
    links = links if links is not None else default_links()

    probe = ProSEEngine(model_config=config)
    devices: Dict[str, RooflineDevice] = {
        "A100": probe.a100, "TPUv2": probe.tpu_v2, "TPUv3": probe.tpu_v3}
    baseline_throughput = {
        name: devices[name].throughput(config, batch=batch, seq_len=seq_len,
                                       accelerated_only=True)
        for name in baselines}

    cells: List[SpeedupCell] = []
    for hardware in configs:
        for link in links:
            engine = ProSEEngine(hardware=hardware.with_link(link),
                                 model_config=config)
            report = engine.simulate(batch=batch, seq_len=seq_len)
            for name in baselines:
                cells.append(SpeedupCell(
                    config_name=hardware.name, link_name=link.name,
                    baseline=name,
                    speedup=report.throughput / baseline_throughput[name]))
    return Figure18Result(cells=tuple(cells))


def format_result(result: Figure18Result) -> str:
    baselines = sorted({c.baseline for c in result.cells})
    links = []
    for cell in result.cells:
        if cell.link_name not in links:
            links.append(cell.link_name)
    lines = []
    for baseline in baselines:
        lines.append(f"speedup vs {baseline}:")
        header = f"{'config':>16s} " + " ".join(
            f"{link[:14]:>15s}" for link in links)
        lines.append(header)
        for name in result.config_names():
            cells = " ".join(
                f"{result.speedup(name, link, baseline):15.2f}"
                for link in links)
            lines.append(f"{name:>16s} {cells}")
    return "\n".join(lines)
