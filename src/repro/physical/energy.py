"""Energy attribution: where do the joules of one inference go?

Combines a :class:`~repro.sched.orchestrator.ScheduleResult` with the
physical model to decompose a batch's energy into active array energy
(per dataflow kind), idle array energy, and host energy — the
accounting behind the paper's efficiency headline, one level deeper.

Idle arrays still burn most of their power (leakage plus clocking); the
paper's synthesized numbers are totals, so we attribute an idle fraction
of the per-array power when an array is not executing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, Tuple

from ..arch.config import HardwareConfig
from ..dataflow.patterns import ArrayType
from ..sched.host import HOST_POWER_WATTS
from ..sched.orchestrator import ScheduleResult
from .power import array_characteristics

#: Fraction of active power an idle (clock-gated) array still draws.
IDLE_POWER_FRACTION = 0.35


@dataclass(frozen=True)
class EnergyReport:
    """Energy decomposition of one batched inference.

    Attributes:
        active_joules_by_kind: array energy attributed to each dataflow
            kind's compute demand.
        idle_joules: energy burnt by idle (clock-gated) arrays.
        host_joules: host CPU + DRAM energy over the makespan.
        batch: inferences the energy paid for.
    """

    active_joules_by_kind: Tuple[Tuple[str, float], ...]
    idle_joules: float
    host_joules: float
    batch: int

    @property
    def active_joules(self) -> float:
        return reduce(add, (value for _, value
                            in self.active_joules_by_kind), 0)

    @property
    def total_joules(self) -> float:
        return self.active_joules + self.idle_joules + self.host_joules

    @property
    def joules_per_inference(self) -> float:
        return self.total_joules / self.batch

    def share(self, component: str) -> float:
        """Fraction of total energy for 'idle', 'host', or a kind name."""
        if component == "idle":
            return self.idle_joules / self.total_joules
        if component == "host":
            return self.host_joules / self.total_joules
        for kind, value in self.active_joules_by_kind:
            if kind == component:
                return value / self.total_joules
        raise KeyError(component)


def energy_report(schedule: ScheduleResult,
                  hardware: HardwareConfig) -> EnergyReport:
    """Decompose one schedule's energy using the physical model.

    Active energy per kind uses each kind's compute demand at the mean
    active power of the arrays that can execute it; idle energy charges
    the remaining array-seconds at the idle fraction; host energy covers
    the full makespan (its power constant is already duty-weighted).
    """
    makespan = schedule.makespan_seconds
    total_active: Dict[str, float] = dict(
        schedule.kind_compute_seconds)

    # Mean active power per array type, input buffers included.
    type_power: Dict[ArrayType, float] = {}
    type_array_seconds: Dict[ArrayType, float] = {}
    total_idle_joules = 0.0
    for group in hardware.groups:
        char = array_characteristics(hardware, group.array_type,
                                     group.size)
        power_w = (char.inbuf_power_mw if hardware.use_input_buffer
                   else char.power_mw) / 1000.0
        type_power[group.array_type] = power_w
        type_array_seconds[group.array_type] = group.count * makespan

    kind_to_type = {"dataflow1": ArrayType.M, "dataflow2": ArrayType.G,
                    "dataflow3": ArrayType.E}
    active_rows = []
    busy_by_type: Dict[ArrayType, float] = {t: 0.0 for t in ArrayType}
    for kind, seconds in sorted(total_active.items()):
        array_type = kind_to_type.get(kind, ArrayType.M)
        power = type_power.get(array_type, 0.0)
        active_rows.append((kind, seconds * power))
        busy_by_type[array_type] += seconds

    for array_type, available in type_array_seconds.items():
        idle_seconds = max(available - busy_by_type.get(array_type, 0.0),
                           0.0)
        total_idle_joules += (idle_seconds
                              * type_power.get(array_type, 0.0)
                              * IDLE_POWER_FRACTION)

    return EnergyReport(active_joules_by_kind=tuple(active_rows),
                        idle_joules=total_idle_joules,
                        host_joules=makespan * HOST_POWER_WATTS,
                        batch=schedule.batch)


def format_energy(report: EnergyReport) -> str:
    lines = [f"{'component':>12s} {'joules':>9s} {'share':>7s}"]
    for kind, joules in report.active_joules_by_kind:
        lines.append(f"{kind:>12s} {joules:9.3f} "
                     f"{report.share(kind):6.1%}")
    lines.append(f"{'idle':>12s} {report.idle_joules:9.3f} "
                 f"{report.share('idle'):6.1%}")
    lines.append(f"{'host':>12s} {report.host_joules:9.3f} "
                 f"{report.share('host'):6.1%}")
    lines.append(f"total {report.total_joules:.3f} J for {report.batch} "
                 f"inferences ({report.joules_per_inference * 1e3:.2f} "
                 f"mJ/inference)")
    return "\n".join(lines)
