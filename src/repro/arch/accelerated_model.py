"""Functional execution of Protein BERT on simulated ProSE hardware.

This is the model-scale analogue of the paper's functional (Verilog)
simulation: the full encoder forward pass runs through the functional
systolic-array models — bfloat16 GEMMs with fp32 accumulation on M-Type
arrays, bias/residual additions through the left-rotation SIMD path, GELU
through the G-Type lookup tables, and softmax split between E-Type Exp
LUTs and host-side summation/division — so end-to-end numerical fidelity
against the float reference can be measured directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..dataflow.patterns import ArrayType
from ..model.bert import ProteinBert
from ..telemetry import MetricsRegistry, Tracer
from .systolic import ExecutionStats, SimdOpcode, SimdStep, SystolicArray


class AcceleratedProteinBert:
    """Runs a :class:`ProteinBert` forward pass on functional ProSE arrays.

    Args:
        model: the reference model whose weights are executed.
        array_size: systolic array dimension used for all three types
            (numerics are size-independent; tiling stats are not).
        tracer: optional span tracer; :meth:`forward` then emits
            wall-clock spans (pid ``functional``) per stage and per
            encoder layer, each annotated with the systolic GEMM tile
            count, MAC, and streamed-byte deltas it contributed.
        metrics: optional registry accumulating tile/cycle/byte
            counters across forward passes.  Numerics are unaffected
            by either.
    """

    def __init__(self, model: ProteinBert, array_size: int = 16,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.model = model
        self.tracer = tracer
        self.metrics = metrics
        self.m_array = SystolicArray(array_size, ArrayType.M)
        self.g_array = SystolicArray(array_size, ArrayType.G)
        self.e_array = SystolicArray(array_size, ArrayType.E)
        self.stats = ExecutionStats()

    # -- telemetry helpers ----------------------------------------------

    def _snapshot(self) -> Tuple[int, int, int, int, int]:
        stats = self.stats
        return (stats.tiles, stats.matmul_cycles, stats.simd_cycles,
                stats.streamed_bytes, stats.mac_operations)

    def _emit(self, name: str, t0: float,
              before: Tuple[int, int, int, int, int],
              **extra: object) -> None:
        """Close a wall-clock span annotated with tile/byte deltas."""
        assert self.tracer is not None
        after = self._snapshot()
        self.tracer.add_span(
            name, t0, self.tracer.now(), pid="functional", tid="model",
            category="functional", clock="wall",
            tiles=after[0] - before[0],
            matmul_cycles=after[1] - before[1],
            simd_cycles=after[2] - before[2],
            streamed_bytes=after[3] - before[3],
            mac_operations=after[4] - before[4], **extra)

    # -- Dataflow 1: MatMul -> MulAdd on the M-Type array ---------------

    def _dataflow1(self, x: np.ndarray, weight: np.ndarray,
                   bias: Optional[np.ndarray],
                   residual: Optional[np.ndarray] = None) -> np.ndarray:
        steps = []
        if bias is not None:
            steps.append(SimdStep(SimdOpcode.ADD, bias, broadcast_rows=True))
        if residual is not None:
            steps.append(SimdStep(SimdOpcode.ADD, residual))
        return self.m_array.execute_chain(x, weight, tuple(steps), self.stats)

    # -- Dataflow 2: MatMul -> MulAdd -> GELU on the G-Type array -------

    def _dataflow2(self, x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray) -> np.ndarray:
        steps = (SimdStep(SimdOpcode.ADD, bias, broadcast_rows=True),
                 SimdStep(SimdOpcode.GELU))
        return self.g_array.execute_chain(x, weight, steps, self.stats)

    # -- Dataflow 3: batched MatMul -> MatDiv -> Exp -> host -> MatMul --

    def _attention_scores(self, q: np.ndarray, k: np.ndarray,
                          scale: float,
                          mask_bias: Optional[np.ndarray]) -> np.ndarray:
        """Per-head scores through the E-Type array and host softmax."""
        steps = [SimdStep(SimdOpcode.MUL, 1.0 / scale)]
        if mask_bias is not None:
            steps.append(SimdStep(SimdOpcode.ADD, mask_bias,
                                  broadcast_rows=True))
        steps.append(SimdStep(SimdOpcode.EXP))
        exponentials = self.e_array.execute_chain(q, k.T, tuple(steps),
                                                  self.stats)
        # Softmax summation and division run on the host CPU in fp32.
        sums = exponentials.sum(axis=-1, keepdims=True)
        return exponentials / np.maximum(sums, 1e-30)

    # -- Full forward ----------------------------------------------------

    def forward(self, token_ids: np.ndarray,
                attention_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Accelerated forward pass; shapes match the reference model."""
        model = self.model
        cfg = model.config
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, seq)")
        batch, seq = token_ids.shape
        heads, head_dim = cfg.num_heads, cfg.head_dim

        tracer = self.tracer
        active = tracer is not None or self.metrics is not None
        run_t0 = tracer.now() if tracer is not None else 0.0
        run_snapshot = self._snapshot() if active else None

        # Embeddings and layer norms are host-side ("Other") work.
        hidden = model.embed(token_ids)
        if tracer is not None:
            tracer.add_span("embed", run_t0, tracer.now(),
                            pid="functional", tid="model",
                            category="functional", clock="wall",
                            batch=batch, seq_len=seq)

        for layer_index, layer in enumerate(model.layers):
            if tracer is not None:
                layer_t0 = tracer.now()
                layer_snapshot = self._snapshot()
            flat = hidden.reshape(batch * seq, cfg.hidden_size)
            attention = layer.attention
            q = self._dataflow1(flat, attention.query.weight,
                                attention.query.bias)
            k = self._dataflow1(flat, attention.key.weight,
                                attention.key.bias)
            v = self._dataflow1(flat, attention.value.weight,
                                attention.value.bias)

            def heads_of(x: np.ndarray) -> np.ndarray:
                return (x.reshape(batch, seq, heads, head_dim)
                        .transpose(0, 2, 1, 3))

            qh, kh, vh = heads_of(q), heads_of(k), heads_of(v)
            scale = float(np.sqrt(head_dim))
            context = np.empty_like(qh)
            for b in range(batch):
                mask_bias = None
                if attention_mask is not None:
                    mask_bias = ((1.0 - attention_mask[b]) * -1e9
                                 ).astype(np.float32)
                for h in range(heads):
                    probabilities = self._attention_scores(
                        qh[b, h], kh[b, h], scale, mask_bias)
                    context[b, h] = self.e_array.matmul(
                        probabilities, vh[b, h], self.stats)
            merged = (context.transpose(0, 2, 1, 3)
                      .reshape(batch * seq, cfg.hidden_size))

            attended = self._dataflow1(
                merged, attention.output.weight, attention.output.bias,
                residual=flat)
            hidden = layer.attention_norm.forward(
                attended.reshape(batch, seq, cfg.hidden_size))

            flat = hidden.reshape(batch * seq, cfg.hidden_size)
            inner = self._dataflow2(flat, layer.intermediate.weight,
                                    layer.intermediate.bias)
            projected = self._dataflow1(inner, layer.output.weight,
                                        layer.output.bias, residual=flat)
            hidden = layer.output_norm.forward(
                projected.reshape(batch, seq, cfg.hidden_size))
            if tracer is not None:
                self._emit(f"encoder_layer[{layer_index}]", layer_t0,
                           layer_snapshot, layer=layer_index)
        if tracer is not None and run_snapshot is not None:
            self._emit("forward", run_t0, run_snapshot,
                       batch=batch, seq_len=seq,
                       layers=len(model.layers))
        if self.metrics is not None and run_snapshot is not None:
            final = self._snapshot()
            self.metrics.counter("functional/forward_passes").inc(1)
            self.metrics.counter("functional/tokens").inc(batch * seq)
            for field, before, value in zip(
                    ("tiles", "matmul_cycles", "simd_cycles",
                     "streamed_bytes", "mac_operations"),
                    run_snapshot, final):
                self.metrics.counter(f"functional/{field}").inc(
                    value - before)
        return hidden

    def fidelity(self, token_ids: np.ndarray,
                 attention_mask: Optional[np.ndarray] = None
                 ) -> Tuple[float, float]:
        """(max abs error, correlation) of accelerated vs reference output."""
        accelerated = self.forward(token_ids, attention_mask)
        reference = self.model.forward(token_ids, attention_mask)
        error = float(np.max(np.abs(accelerated - reference)))
        a, r = accelerated.ravel(), reference.ravel()
        correlation = float(np.corrcoef(a, r)[0, 1])
        return error, correlation
