"""Extension studies beyond the paper's figures.

Four studies exercising the capabilities the paper claims but does not
evaluate quantitatively:

* **Model-zoo scalability** — the streaming design "prevents unscalable
  memory usage on large models": ProSE throughput across TAPE/ESM-scale
  encoders, with on-accelerator storage constant.
* **Activation footprint** — Section 2.1's quadratic memory growth: the
  per-sequence attention scores and linear activations of BERT-base on
  the A100 across the Figure 3 lengths, the largest batch that fits in
  its 40 GiB, and ProSE's length-independent storage.
* **Encoder-decoder** — "adding decoder layers for language translation":
  ProSE running a protein seq2seq model via the same three dataflows.
* **Downstream-task generality** — "applicable to arbitrary downstream
  tasks": one shared extractor transferring to the fluorescence and
  stability tasks plus the Section 2.2 binding study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.config import best_perf
from ..dataflow.seq2seq import build_seq2seq_graph
from ..downstream.evaluation import TaskResult, evaluate_all_tasks, format_results
from ..model.config import BertConfig
from ..model.zoo import MODEL_ZOO, get_model_config
from ..profiling.memory import (
    MemoryFootprint,
    footprint_sweep,
    format_sweep,
    prose_device_bytes,
)
from ..sched.orchestrator import Orchestrator


@dataclass(frozen=True)
class ZooPoint:
    """ProSE throughput on one zoo model."""

    model: str
    parameters: int
    throughput: float
    prose_storage_bytes: int


def model_zoo_scaling(models: Optional[Sequence[str]] = None,
                      batch: int = 32, seq_len: int = 512
                      ) -> List[ZooPoint]:
    """Simulate ProSE across model scales at a fixed operating point."""
    names = models if models is not None else sorted(
        MODEL_ZOO, key=lambda n: MODEL_ZOO[n].parameter_count)
    hardware = best_perf()
    storage = prose_device_bytes(hardware)
    points = []
    for name in names:
        config = get_model_config(name)
        schedule = Orchestrator(hardware).run(config, batch=batch,
                                              seq_len=seq_len)
        points.append(ZooPoint(model=name,
                               parameters=config.parameter_count,
                               throughput=schedule.throughput,
                               prose_storage_bytes=storage))
    return points


@dataclass(frozen=True)
class Seq2SeqPoint:
    """Encoder-only vs encoder-decoder throughput at one shape."""

    src_len: int
    tgt_len: int
    encoder_throughput: float
    seq2seq_throughput: float

    @property
    def decoder_overhead(self) -> float:
        """Throughput ratio encoder-only / encoder-decoder (≥ 1)."""
        return self.encoder_throughput / self.seq2seq_throughput


def seq2seq_study(config: Optional[BertConfig] = None, batch: int = 16,
                  shapes: Sequence[Tuple[int, int]] = ((256, 128),
                                                       (512, 256))
                  ) -> List[Seq2SeqPoint]:
    """ProSE running encoder-decoder inference via the same dataflows."""
    config = config or get_model_config("tape-bert")
    orchestrator = Orchestrator(best_perf())
    points = []
    for src_len, tgt_len in shapes:
        encoder = orchestrator.run(config, batch=batch, seq_len=src_len)
        seq2seq = orchestrator.run(
            config, batch=batch, seq_len=src_len,
            graph_builder=lambda sub: build_seq2seq_graph(
                config, batch=sub, src_len=src_len, tgt_len=tgt_len))
        points.append(Seq2SeqPoint(src_len=src_len, tgt_len=tgt_len,
                                   encoder_throughput=encoder.throughput,
                                   seq2seq_throughput=seq2seq.throughput))
    return points


def run() -> Tuple[List[ZooPoint], List[Seq2SeqPoint],
                   Dict[str, TaskResult], List[MemoryFootprint]]:
    """Run all four extension studies at laptop scale."""
    zoo = model_zoo_scaling(models=("protein-bert-compact", "tape-bert",
                                    "esm-1b"))
    seq2seq = seq2seq_study()
    tasks = evaluate_all_tasks()
    return zoo, seq2seq, tasks, footprint_sweep()


def format_result(results) -> str:
    zoo, seq2seq, tasks, footprints = results
    lines = ["-- model-zoo scalability (BestPerf, 512 tokens) --",
             f"{'model':>22s} {'params':>8s} {'inf/s':>8s} "
             f"{'ProSE storage':>14s}"]
    for point in zoo:
        lines.append(f"{point.model:>22s} "
                     f"{point.parameters / 1e6:7.0f}M "
                     f"{point.throughput:8.1f} "
                     f"{point.prose_storage_bytes / 2 ** 20:11.2f}MiB")
    lines.append("")
    lines.append("-- encoder-decoder on the same dataflows --")
    lines.append(f"{'src':>5s} {'tgt':>5s} {'enc inf/s':>10s} "
                 f"{'s2s inf/s':>10s} {'overhead':>9s}")
    for point in seq2seq:
        lines.append(f"{point.src_len:5d} {point.tgt_len:5d} "
                     f"{point.encoder_throughput:10.1f} "
                     f"{point.seq2seq_throughput:10.1f} "
                     f"{point.decoder_overhead:9.2f}x")
    lines.append("")
    lines.append("-- downstream-task generality --")
    lines.append(format_results(tasks))
    lines.append("")
    lines.append("-- activation footprint per sequence (BERT-base, A100) --")
    lines.append(format_sweep(footprints))
    return "\n".join(lines)
