"""Result types returned by the public ProSE engine API."""

from __future__ import annotations

from dataclasses import dataclass

from ..physical.power import PowerReport
from ..sched.orchestrator import ScheduleResult


@dataclass(frozen=True)
class InferenceReport:
    """Performance and power of one simulated batched inference.

    Attributes:
        config_name: hardware configuration label.
        schedule: the full scheduling result (makespan, utilizations...).
        power: the power/area decomposition of the configuration.
    """

    config_name: str
    schedule: ScheduleResult
    power: PowerReport

    @property
    def throughput(self) -> float:
        """Inferences per second."""
        return self.schedule.throughput

    @property
    def latency_seconds(self) -> float:
        return self.schedule.makespan_seconds

    @property
    def system_power_watts(self) -> float:
        return self.power.system_power_w

    @property
    def efficiency(self) -> float:
        """Inferences per second per Watt (the paper's headline metric)."""
        return self.throughput / self.system_power_watts


@dataclass(frozen=True)
class Comparison:
    """ProSE vs one commodity baseline at a single operating point."""

    prose: InferenceReport
    baseline_name: str
    baseline_throughput: float
    baseline_power_watts: float

    @property
    def speedup(self) -> float:
        """ProSE throughput over baseline throughput (Figure 18 metric)."""
        return self.prose.throughput / self.baseline_throughput

    @property
    def baseline_efficiency(self) -> float:
        return self.baseline_throughput / self.baseline_power_watts

    @property
    def efficiency_gain(self) -> float:
        """Normalized power-efficiency ratio (Figure 19 metric)."""
        return self.prose.efficiency / self.baseline_efficiency
