"""ProSEEngine — the library's primary public entry point.

Wraps the dataflow compiler, the cycle-level orchestration simulator, the
physical power model, and the commodity baselines behind one object:

    >>> from repro.core import ProSEEngine
    >>> engine = ProSEEngine()                      # BestPerf, NVLink 2.0
    >>> report = engine.simulate(batch=128, seq_len=512)
    >>> report.throughput, report.efficiency        # inf/s, inf/s/W
    >>> engine.compare(engine.a100, batch=128, seq_len=512).speedup
"""

from __future__ import annotations

from typing import Optional

from ..arch.config import HardwareConfig, best_perf
from ..baselines.gpu import a100
from ..baselines.roofline import RooflineDevice
from ..baselines.tpu import tpu_v2, tpu_v3
from ..model.config import BertConfig, protein_bert_base
from ..physical.power import power_report
from ..sched.host import HostModel
from ..sched.orchestrator import Orchestrator
from .results import Comparison, InferenceReport


class ProSEEngine:
    """Simulates Protein BERT inference on a ProSE accelerator instance.

    Args:
        hardware: the accelerator configuration (default: Table 4 BestPerf).
        model_config: the Protein BERT model (default: BERT-base over the
            protein vocabulary, as in the paper).
        host: host CPU model.
    """

    def __init__(self, hardware: Optional[HardwareConfig] = None,
                 model_config: Optional[BertConfig] = None,
                 host: Optional[HostModel] = None) -> None:
        self.hardware = hardware or best_perf()
        self.model_config = model_config or protein_bert_base()
        self.host = host or HostModel()
        self._orchestrator = Orchestrator(self.hardware, host=self.host)
        self.a100 = a100()
        self.tpu_v2 = tpu_v2()
        self.tpu_v3 = tpu_v3()

    def simulate(self, batch: int = 128, seq_len: int = 512,
                 threads: Optional[int] = None,
                 record_tasks: bool = False) -> InferenceReport:
        """Run the cycle-level simulation of one batched inference.

        Raises:
            ValueError: on non-positive ``batch``, ``seq_len``, or
                ``threads`` — nonsense schedules are rejected up front.
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        if threads is not None and threads <= 0:
            raise ValueError(f"threads must be positive, got {threads}")
        schedule = self._orchestrator.run(
            self.model_config, batch=batch, seq_len=seq_len,
            threads=threads, record_tasks=record_tasks)
        return InferenceReport(config_name=self.hardware.name,
                               schedule=schedule,
                               power=power_report(self.hardware))

    def compare(self, baseline: RooflineDevice, batch: int = 128,
                seq_len: int = 512,
                baseline_batch: Optional[int] = None) -> Comparison:
        """Compare ProSE against a commodity baseline.

        Both systems run the same model and sequence length; the baseline
        may use its own throughput-optimal batch size (as the paper's
        measurements do).  Only the accelerated portions are compared
        ("all operations except for 'Other'", Section 4.1).
        """
        report = self.simulate(batch=batch, seq_len=seq_len)
        baseline_throughput = baseline.throughput(
            self.model_config, batch=baseline_batch or batch,
            seq_len=seq_len, accelerated_only=True)
        return Comparison(prose=report,
                          baseline_name=baseline.spec.name,
                          baseline_throughput=baseline_throughput,
                          baseline_power_watts=baseline.spec.tdp_watts)
