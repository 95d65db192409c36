"""Multi-instance ProSE system (Section 3.2, System Overview).

"We envision a host CPU that is capable of supporting four NVLinks
similar to what the latest NVIDIA Grace CPU is capable of, with each
NVLink connecting to one ProSE instance, totaling four ProSE instances
per system."

The system model shards an inference batch across instances (each with
its own dedicated link), shares one host CPU for the softmax finishes and
layer norms, and accounts power once for the host and per-instance for
the accelerators.  Failures of this system are modeled by
:mod:`repro.fleet` on a 1-rack, 1-host fleet of the same instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..arch.config import HardwareConfig, best_perf
from ..model.config import BertConfig, protein_bert_base
from ..physical.power import power_report
from ..sched.host import HOST_POWER_WATTS, HostModel
from ..sched.orchestrator import Orchestrator, ScheduleResult
from ..telemetry import MetricsRegistry, Tracer

#: Instances per system in the paper's envisioned deployment.
DEFAULT_INSTANCES = 4


@dataclass(frozen=True)
class SystemReport:
    """Performance and power of a multi-instance ProSE system.

    Attributes:
        instances: ProSE accelerator cards in the system.
        per_instance: per-shard schedule results, in shard order.
        batch: total inferences completed.
    """

    instances: int
    per_instance: Tuple[ScheduleResult, ...]
    batch: int

    @property
    def makespan_seconds(self) -> float:
        """System latency: the slowest shard finishes last."""
        return max(result.makespan_seconds for result in self.per_instance)

    @property
    def throughput(self) -> float:
        return self.batch / self.makespan_seconds

    @property
    def accelerator_power_watts(self) -> float:
        return self._accelerator_power

    @property
    def system_power_watts(self) -> float:
        """All instances plus one shared host."""
        return self._accelerator_power + HOST_POWER_WATTS

    @property
    def efficiency(self) -> float:
        return self.throughput / self.system_power_watts

    # power injected at construction (frozen dataclass workaround)
    _accelerator_power: float = 0.0


class ProSESystem:
    """A host CPU driving several ProSE instances over dedicated links.

    Args:
        hardware: the per-instance configuration (each instance gets the
            full link the configuration names — one NVLink per instance).
        instances: number of accelerator cards (paper: 4).
        host: the shared host CPU.  Host slots are divided across
            instances, modeling contention for the shared softmax/norm
            capacity.
    """

    def __init__(self, hardware: Optional[HardwareConfig] = None,
                 instances: int = DEFAULT_INSTANCES,
                 host: Optional[HostModel] = None) -> None:
        if instances <= 0:
            raise ValueError("instances must be positive")
        self.hardware = hardware or best_perf()
        self.instances = instances
        base_host = host or HostModel()
        slots = max(base_host.slots // instances, 1)
        self._shard_host = HostModel(
            slots=slots,
            elementwise_throughput=base_host.elementwise_throughput,
            flops_throughput=base_host.flops_throughput)

    def simulate(self, config: Optional[BertConfig] = None,
                 batch: int = 512, seq_len: int = 512,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> SystemReport:
        """Shard ``batch`` across instances and simulate each shard.

        Args:
            config: the Protein BERT model (default: BERT-base).
            batch: total inferences, sharded across instances.
            seq_len: tokens per inference.
            tracer: optional span tracer; each instance's schedule is
                emitted under its own ``instanceN`` process, with one
                ``shard`` overview span per instance.
            metrics: optional registry; per-instance scheduler metrics
                merge in twice — under an ``instanceN/`` prefix and
                unprefixed (aggregated) — plus a per-shard makespan
                histogram.  ``None`` keeps the report bit-identical.
        """
        config = config or protein_bert_base()
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        if batch < self.instances:
            raise ValueError("batch must cover every instance")
        base, extra = divmod(batch, self.instances)
        shards = [base + (1 if i < extra else 0)
                  for i in range(self.instances)]
        orchestrator = Orchestrator(self.hardware, host=self._shard_host)
        results: List[ScheduleResult] = []
        for index, shard in enumerate(shards):
            pid = f"instance{index}"
            shard_metrics = (MetricsRegistry(name=pid)
                             if metrics is not None else None)
            result = orchestrator.run(config, batch=shard, seq_len=seq_len,
                                      tracer=tracer, metrics=shard_metrics,
                                      trace_pid=pid)
            results.append(result)
            if tracer is not None:
                tracer.add_span(
                    "shard", 0.0, result.makespan_seconds, pid=pid,
                    tid="system", category="shard", instance=index,
                    batch=shard, seq_len=seq_len,
                    bottleneck=result.bottleneck)
            if metrics is not None and shard_metrics is not None:
                metrics.merge(shard_metrics, prefix=pid)
                metrics.merge(shard_metrics)
                metrics.histogram("system/shard_makespan_seconds").observe(
                    result.makespan_seconds)
        accel_power = (power_report(self.hardware).accelerator_power_w
                       * self.instances)
        return SystemReport(instances=self.instances,
                            per_instance=tuple(results), batch=batch,
                            _accelerator_power=accel_power)


def scaling_study(config: Optional[BertConfig] = None,
                  instance_counts: Tuple[int, ...] = (1, 2, 4),
                  batch_per_instance: int = 64,
                  seq_len: int = 512) -> List[SystemReport]:
    """Throughput/efficiency scaling from 1 to N instances."""
    config = config or protein_bert_base()
    reports = []
    for count in instance_counts:
        system = ProSESystem(instances=count)
        reports.append(system.simulate(
            config, batch=batch_per_instance * count, seq_len=seq_len))
    return reports


def format_scaling(reports: List[SystemReport]) -> str:
    lines = [f"{'instances':>10s} {'batch':>6s} {'inf/s':>9s} "
             f"{'system W':>9s} {'inf/s/W':>8s} {'scaling':>8s}"]
    base = reports[0].throughput if reports else 1.0
    for report in reports:
        lines.append(
            f"{report.instances:10d} {report.batch:6d} "
            f"{report.throughput:9.1f} {report.system_power_watts:9.1f} "
            f"{report.efficiency:8.2f} "
            f"{report.throughput / base:7.2f}x")
    return "\n".join(lines)
