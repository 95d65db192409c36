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

from typing import List, Optional, Tuple

import numpy as np

from ..dataflow.patterns import ArrayType
from ..model.bert import ProteinBert
from ..model.tensors import to_bfloat16
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

    Each layer's six GEMM weight matrices are rounded to bfloat16 once,
    here: they are immutable model state, so the arrays are told not to
    round them again on every call.
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
        #: Per layer: the query, key, value, attention-output,
        #: intermediate and output weights, rounded to bfloat16.
        self.bf16_weights: List[Tuple[np.ndarray, ...]] = [
            tuple(to_bfloat16(linear.weight) for linear in (
                layer.attention.query, layer.attention.key,
                layer.attention.value, layer.attention.output,
                layer.intermediate, layer.output))
            for layer in model.layers]

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
        return self.m_array.execute_chain(x, weight, tuple(steps), self.stats,
                                          assume_bf16_b=True)

    # -- Dataflow 2: MatMul -> MulAdd -> GELU on the G-Type array -------

    def _dataflow2(self, x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray) -> np.ndarray:
        steps = (SimdStep(SimdOpcode.ADD, bias, broadcast_rows=True),
                 SimdStep(SimdOpcode.GELU))
        return self.g_array.execute_chain(x, weight, steps, self.stats,
                                          assume_bf16_b=True)

    # -- Dataflow 3: MatMul -> MatDiv -> Exp -> host -> MatMul ----------
    # One (batch, head) score tile at a time, as the E-Type arrays stream
    # the heads: no more than one head's (seq, seq) tile is ever held.

    def _attention_scores(self, q: np.ndarray, k: np.ndarray,
                          scale: float,
                          mask_bias: Optional[np.ndarray]) -> np.ndarray:
        """One head's scores through the E-Type array and host softmax.

        ``k`` is read out of a Dataflow 1 chain, so it is exact bfloat16
        and is not rounded again.
        """
        steps = [SimdStep(SimdOpcode.MUL, 1.0 / scale)]
        if mask_bias is not None:
            steps.append(SimdStep(SimdOpcode.ADD, mask_bias,
                                  broadcast_rows=True))
        steps.append(SimdStep(SimdOpcode.EXP))
        exponentials = self.e_array.execute_chain(
            q, k.T, tuple(steps), self.stats, assume_bf16_b=True)
        # Softmax summation and division run on the host CPU in fp32.
        sums = exponentials.sum(axis=-1, keepdims=True)
        exponentials /= np.maximum(sums, 1e-30)
        return exponentials

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
        if attention_mask is not None:
            attention_mask = np.asarray(attention_mask)
            if attention_mask.shape != (batch, seq):
                raise ValueError("attention_mask must be (batch, seq)")
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
            (query, key, value, attention_output, intermediate,
             output) = self.bf16_weights[layer_index]
            q = self._dataflow1(flat, query, attention.query.bias)
            k = self._dataflow1(flat, key, attention.key.bias)
            v = self._dataflow1(flat, value, attention.value.bias)

            qh, kh, vh = (x.reshape(batch, seq, heads, head_dim)
                          for x in (q, k, v))
            scale = float(np.sqrt(head_dim))
            # Written in (batch, seq, head, dim) order: merging the heads
            # back is then a reshape, not a copy.
            context = np.empty_like(qh)
            for b in range(batch):
                mask_bias = None
                if attention_mask is not None:
                    mask_bias = ((1.0 - attention_mask[b]) * -1e9
                                 ).astype(np.float32)
                for h in range(heads):
                    probabilities = self._attention_scores(
                        qh[b, :, h], kh[b, :, h], scale, mask_bias)
                    # The value slice is a chain output too: exact bf16.
                    context[b, :, h] = self.e_array.matmul(
                        probabilities, vh[b, :, h], self.stats,
                        assume_bf16_b=True)
            merged = context.reshape(batch * seq, cfg.hidden_size)

            attended = self._dataflow1(
                merged, attention_output, attention.output.bias,
                residual=flat)
            hidden = layer.attention_norm.forward(
                attended.reshape(batch, seq, cfg.hidden_size))

            flat = hidden.reshape(batch * seq, cfg.hidden_size)
            inner = self._dataflow2(flat, intermediate,
                                    layer.intermediate.bias)
            projected = self._dataflow1(inner, output, layer.output.bias,
                                        residual=flat)
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
