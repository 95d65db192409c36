"""Figure 19 — ProSE power efficiency over A100 and TPUv3 vs bandwidth.

The same grid as Figure 18 but in normalized perf/Watt.  Claims to
reproduce: one to two orders of magnitude efficiency gain — tens of times
the A100 and a couple hundred times TPUv3 — attributed to eliminating the
large, power-hungry Unified Buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.config import HardwareConfig, table4_configs
from ..arch.interconnect import LinkConfig
from ..baselines.roofline import RooflineDevice
from ..core.engine import ProSEEngine
from ..model.config import BertConfig, protein_bert_base
from .figure18 import default_links


@dataclass(frozen=True)
class EfficiencyCell:
    """One bar of Figure 19 (normalized power-efficiency ratio)."""

    config_name: str
    link_name: str
    baseline: str
    efficiency_gain: float


@dataclass(frozen=True)
class Figure19Result:
    cells: Tuple[EfficiencyCell, ...]

    def gain(self, config_name: str, link_name: str, baseline: str) -> float:
        for cell in self.cells:
            if (cell.config_name == config_name
                    and cell.link_name == link_name
                    and cell.baseline == baseline):
                return cell.efficiency_gain
        raise KeyError((config_name, link_name, baseline))

def run(config: Optional[BertConfig] = None,
        configs: Optional[Sequence[HardwareConfig]] = None,
        links: Optional[Sequence[LinkConfig]] = None,
        batch: int = 64, seq_len: int = 512,
        baselines: Tuple[str, ...] = ("A100", "TPUv3")) -> Figure19Result:
    """Regenerate the Figure 19 efficiency grid."""
    config = config or protein_bert_base()
    configs = configs if configs is not None else table4_configs()
    links = links if links is not None else default_links()

    probe = ProSEEngine(model_config=config)
    devices: Dict[str, RooflineDevice] = {
        "A100": probe.a100, "TPUv2": probe.tpu_v2, "TPUv3": probe.tpu_v3}
    baseline_efficiency = {}
    for name in baselines:
        device = devices[name]
        throughput = device.throughput(config, batch=batch, seq_len=seq_len,
                                       accelerated_only=True)
        baseline_efficiency[name] = throughput / device.spec.tdp_watts

    cells: List[EfficiencyCell] = []
    for hardware in configs:
        for link in links:
            engine = ProSEEngine(hardware=hardware.with_link(link),
                                 model_config=config)
            report = engine.simulate(batch=batch, seq_len=seq_len)
            for name in baselines:
                cells.append(EfficiencyCell(
                    config_name=hardware.name, link_name=link.name,
                    baseline=name,
                    efficiency_gain=report.efficiency
                    / baseline_efficiency[name]))
    return Figure19Result(cells=tuple(cells))


def format_result(result: Figure19Result) -> str:
    baselines = sorted({c.baseline for c in result.cells})
    config_names: List[str] = []
    links: List[str] = []
    for cell in result.cells:
        if cell.config_name not in config_names:
            config_names.append(cell.config_name)
        if cell.link_name not in links:
            links.append(cell.link_name)
    lines = []
    for baseline in baselines:
        lines.append(f"normalized power efficiency vs {baseline}:")
        lines.append(f"{'config':>16s} " + " ".join(
            f"{link[:14]:>15s}" for link in links))
        for name in config_names:
            cells = " ".join(f"{result.gain(name, link, baseline):15.1f}"
                             for link in links)
            lines.append(f"{name:>16s} {cells}")
    return "\n".join(lines)
