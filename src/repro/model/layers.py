"""Basic neural-network layers for the NumPy Protein BERT encoder.

Each layer's forward pass optionally appends the ATen-level ops it performs
to a ``recorder`` list, mirroring the PyTorch JIT instrumentation of the
paper's Figure 15.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..trace.ops import Op, OpKind, elementwise_op, matmul_op, maybe_record
from .activations import layer_norm


class Linear:
    """Affine projection ``y = x @ W + b``.

    Args:
        weight: array of shape ``(in_features, out_features)``.
        bias: array of shape ``(out_features,)`` or None.
        name: provenance label used in traces.
        layer: encoder layer index for trace records.
    """

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray] = None,
                 name: str = "linear", layer: int = -1) -> None:
        if weight.ndim != 2:
            raise ValueError("Linear weight must be 2-D (in, out)")
        if bias is not None and bias.shape != (weight.shape[1],):
            raise ValueError("Linear bias shape must match out_features")
        self.weight = np.asarray(weight, dtype=np.float32)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float32)
        self.name = name
        self.layer = layer

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray,
                recorder: Optional[List[Op]] = None) -> np.ndarray:
        """Apply the projection to ``x`` of shape ``(..., in_features)``."""
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected last dim {self.in_features}, "
                f"got {x.shape[-1]}")
        rows = int(np.prod(x.shape[:-1]))
        maybe_record(recorder, matmul_op(
            rows, self.in_features, self.out_features,
            name=self.name, layer=self.layer))
        y = x @ self.weight
        if self.bias is not None:
            maybe_record(recorder, elementwise_op(
                OpKind.ADD, x.shape[:-1] + (self.out_features,),
                name=f"{self.name}.bias", layer=self.layer,
                metadata={"vector_operand": 1.0}))
            y += self.bias
        return y


class LayerNorm:
    """Layer normalization with learned scale and shift."""

    def __init__(self, gamma: np.ndarray, beta: np.ndarray,
                 eps: float = 1e-12, name: str = "layernorm",
                 layer: int = -1) -> None:
        if gamma.shape != beta.shape or gamma.ndim != 1:
            raise ValueError("LayerNorm gamma/beta must be equal-shape 1-D")
        self.gamma = np.asarray(gamma, dtype=np.float32)
        self.beta = np.asarray(beta, dtype=np.float32)
        self.eps = eps
        self.name = name
        self.layer = layer

    def forward(self, x: np.ndarray,
                recorder: Optional[List[Op]] = None) -> np.ndarray:
        if x.shape[-1] != self.gamma.shape[0]:
            raise ValueError(f"{self.name}: feature dim mismatch")
        maybe_record(recorder, elementwise_op(
            OpKind.LAYERNORM, x.shape, name=self.name, layer=self.layer))
        return layer_norm(x, self.gamma, self.beta, eps=self.eps)


class Embedding:
    """Token / position embedding lookup."""

    def __init__(self, table: np.ndarray, name: str = "embedding") -> None:
        if table.ndim != 2:
            raise ValueError("Embedding table must be 2-D (vocab, hidden)")
        self.table = np.asarray(table, dtype=np.float32)
        self.name = name

    @property
    def num_embeddings(self) -> int:
        return self.table.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.table.shape[1]

    def forward(self, ids: np.ndarray,
                recorder: Optional[List[Op]] = None) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.min() < 0 or ids.max() >= self.num_embeddings:
            raise ValueError(f"{self.name}: token id out of range")
        maybe_record(recorder, elementwise_op(
            OpKind.EMBEDDING, ids.shape + (self.embedding_dim,),
            name=self.name))
        return self.table[ids]
