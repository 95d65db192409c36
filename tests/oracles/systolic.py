"""The functional datapath as it stood before the encoder weights were
rounded to bfloat16 once, when :class:`AcceleratedProteinBert` is built,
and before the attention passed ``k.T`` and the value slices as bfloat16.

:class:`RoundingSystolicArray` rounds ``b`` on every ``matmul`` and
ignores a caller's mark that ``b`` is already bfloat16;
:func:`unrounded_weights` gives each layer's fp32 GEMM weights in the
order of ``AcceleratedProteinBert.bf16_weights``.  An accelerated model
running on these arrays with these weights is the old datapath, which
the product must match bit for bit; :class:`RoundingAcceleratedBert` is
that model.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.arch.accelerated_model import AcceleratedProteinBert
from repro.arch.systolic import ExecutionStats, SystolicArray
from repro.dataflow.patterns import ArrayType
from repro.model.bert import ProteinBert
from repro.model.tensors import to_bfloat16


class RoundingSystolicArray(SystolicArray):
    """A systolic array whose ``matmul`` rounds both operands per call."""

    def matmul(self, a: np.ndarray, b: np.ndarray,
               stats: Optional[ExecutionStats] = None,
               assume_bf16_b: bool = False) -> np.ndarray:
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"bad matmul shapes {a.shape} x {b.shape}")
        m, k = a.shape
        n_out = b.shape[1]
        result = to_bfloat16(a) @ to_bfloat16(b)
        if stats is not None:
            rows, cols = self._tile_counts(m, n_out)
            tiles = rows * cols
            stats.tiles += tiles
            stats.matmul_cycles += tiles * (k + 2 * self.size)
            stats.mac_operations += m * k * n_out
            stats.streamed_bytes += 2 * (rows * self.size * k      # A tiles
                                         + tiles * k * self.size)  # B tiles
        return result.astype(np.float32, copy=False)


def unrounded_weights(model: ProteinBert) -> List[Tuple[np.ndarray, ...]]:
    """Per layer: the query, key, value, attention-output, intermediate
    and output weights, in fp32."""
    return [tuple(linear.weight for linear in (
        layer.attention.query, layer.attention.key, layer.attention.value,
        layer.attention.output, layer.intermediate, layer.output))
        for layer in model.layers]


class RoundingAcceleratedBert(AcceleratedProteinBert):
    """The old datapath: every array rounds ``b`` on every call, so the
    fp32 weights, ``k.T`` and the value slices are all rounded again."""

    def __init__(self, model: ProteinBert, array_size: int = 16) -> None:
        super().__init__(model, array_size)
        self.m_array = RoundingSystolicArray(array_size, ArrayType.M)
        self.g_array = RoundingSystolicArray(array_size, ArrayType.G)
        self.e_array = RoundingSystolicArray(array_size, ArrayType.E)
        self.bf16_weights = unrounded_weights(model)
