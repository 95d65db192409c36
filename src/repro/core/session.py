"""InferenceSession — the downstream user's entry point.

Wraps the whole stack for someone who just wants embeddings and an
accelerator cost estimate: tokenize protein sequences, run them through
the (functionally simulated) accelerator or the float reference, and
report the cycle-level latency/energy the same workload would take on the
configured ProSE hardware.

    >>> from repro.core.session import InferenceSession
    >>> session = InferenceSession.small()
    >>> result = session.embed(["MEYQKL...", "ACDE..."])
    >>> result.embeddings.shape, result.estimated_latency_seconds
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..arch.accelerated_model import AcceleratedProteinBert
from ..arch.config import HardwareConfig, best_perf
from ..model.bert import ProteinBert
from ..model.config import BertConfig
from ..model.weights import pretrained_like_weights
from ..physical.power import power_report
from ..proteins.tokenizer import ProteinTokenizer
from ..sched.orchestrator import Orchestrator

#: The compact encoder of :meth:`InferenceSession.small`.
SMALL_CONFIG = BertConfig(hidden_size=256, num_layers=4, num_heads=8,
                          intermediate_size=512, max_position=512)


@dataclass(frozen=True)
class SessionResult:
    """Embeddings plus the hardware cost estimate for one batch.

    Attributes:
        embeddings: pooled per-sequence features ``(batch, hidden)``.
        estimated_latency_seconds: simulated ProSE batch latency.
        estimated_energy_joules: latency × system power.
        functional: True when the embeddings came through the simulated
            bfloat16/LUT datapath rather than the float reference.
    """

    embeddings: np.ndarray
    estimated_latency_seconds: float
    estimated_energy_joules: float
    functional: bool


class InferenceSession:
    """Run protein sequences through a simulated ProSE deployment.

    Args:
        model: the encoder to execute.
        hardware: the accelerator instance to estimate costs on.
        functional: execute through the functional hardware model
            (bit-faithful but slow in Python) rather than the float
            reference.  Embedding *values* differ only by the bf16/LUT
            error budget.
        tokenizer: protein tokenizer.
    """

    def __init__(self, model: ProteinBert,
                 hardware: Optional[HardwareConfig] = None,
                 functional: bool = False,
                 tokenizer: Optional[ProteinTokenizer] = None) -> None:
        self.model = model
        self.hardware = hardware or best_perf()
        self.functional = functional
        self.tokenizer = tokenizer or ProteinTokenizer()
        self._orchestrator = Orchestrator(self.hardware)
        self._accelerated = (AcceleratedProteinBert(model)
                             if functional else None)
        self._system_power = power_report(self.hardware).system_power_w

    @classmethod
    def small(cls, seed: int = 0,
              functional: bool = False) -> "InferenceSession":
        """A laptop-friendly session with a compact pretrained-like model."""
        model = ProteinBert(SMALL_CONFIG,
                            weights=pretrained_like_weights(SMALL_CONFIG,
                                                            seed=seed))
        return cls(model=model, functional=functional)

    def embed(self, sequences: Sequence[str]) -> SessionResult:
        """Tokenize, encode, pool, and estimate hardware cost.

        Args:
            sequences: amino-acid strings (ragged lengths are padded).

        Returns:
            A :class:`SessionResult`.
        """
        if not sequences:
            raise ValueError("embed requires at least one sequence")
        encoding = self.tokenizer.encode_batch(list(sequences))
        batch, seq_len = encoding.ids.shape

        if self.functional:
            hidden = self._accelerated.forward(encoding.ids,
                                               encoding.attention_mask)
            mask = encoding.attention_mask[..., None].astype(np.float32)
            totals = (hidden * mask).sum(axis=1)
            counts = np.maximum(mask.sum(axis=1), 1.0)
            embeddings = totals / counts
        else:
            embeddings = self.model.features(encoding.ids,
                                             encoding.attention_mask)

        schedule = self._orchestrator.run(self.model.config, batch=batch,
                                          seq_len=seq_len)
        latency = schedule.makespan_seconds
        return SessionResult(
            embeddings=embeddings,
            estimated_latency_seconds=latency,
            estimated_energy_joules=latency * self._system_power,
            functional=self.functional)
