"""The Protein BERT encoder (paper Figure 7).

One encoder layer is the attention sublayer (multi-head attention + residual
Add & Norm), the intermediate sublayer (wide projection + GELU), and the
output sublayer (narrow projection + residual Add & Norm).  Twelve layers
run consecutively; a downstream model (e.g. the binding-affinity regression)
consumes pooled features from the final hidden states.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..trace.ops import Op, OpKind, elementwise_op, maybe_record
from .activations import gelu
from .attention import MultiHeadAttention
from .config import BertConfig
from .layers import Embedding, LayerNorm, Linear
from .weights import initialize_weights, validate_weights


class EncoderLayer:
    """One Protein BERT encoder layer: attention → intermediate → output."""

    def __init__(self, config: BertConfig, weights: Dict[str, np.ndarray],
                 index: int) -> None:
        prefix = f"layer.{index}"
        self.index = index
        self.config = config
        self.attention = MultiHeadAttention(
            config,
            query=Linear(weights[f"{prefix}.attention.query.weight"],
                         weights[f"{prefix}.attention.query.bias"],
                         name=f"{prefix}.attention.query", layer=index),
            key=Linear(weights[f"{prefix}.attention.key.weight"],
                       weights[f"{prefix}.attention.key.bias"],
                       name=f"{prefix}.attention.key", layer=index),
            value=Linear(weights[f"{prefix}.attention.value.weight"],
                         weights[f"{prefix}.attention.value.bias"],
                         name=f"{prefix}.attention.value", layer=index),
            output=Linear(weights[f"{prefix}.attention.attention_output.weight"],
                          weights[f"{prefix}.attention.attention_output.bias"],
                          name=f"{prefix}.attention.output", layer=index),
            layer=index)
        self.attention_norm = LayerNorm(
            weights[f"{prefix}.attention.layernorm.gamma"],
            weights[f"{prefix}.attention.layernorm.beta"],
            eps=config.layer_norm_eps,
            name=f"{prefix}.attention.layernorm", layer=index)
        self.intermediate = Linear(
            weights[f"{prefix}.intermediate.weight"],
            weights[f"{prefix}.intermediate.bias"],
            name=f"{prefix}.intermediate", layer=index)
        self.output = Linear(
            weights[f"{prefix}.output.weight"],
            weights[f"{prefix}.output.bias"],
            name=f"{prefix}.output", layer=index)
        self.output_norm = LayerNorm(
            weights[f"{prefix}.output.layernorm.gamma"],
            weights[f"{prefix}.output.layernorm.beta"],
            eps=config.layer_norm_eps,
            name=f"{prefix}.output.layernorm", layer=index)

    def forward(self, hidden: np.ndarray,
                attention_mask: Optional[np.ndarray] = None,
                recorder: Optional[List[Op]] = None) -> np.ndarray:
        """Run one encoder layer over ``(batch, seq, hidden)`` activations."""
        attended = self.attention.forward(hidden, attention_mask, recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.ADD, hidden.shape,
            name=f"layer.{self.index}.attention.residual", layer=self.index))
        hidden = self.attention_norm.forward(attended + hidden, recorder)

        inner = self.intermediate.forward(hidden, recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.GELU, inner.shape,
            name=f"layer.{self.index}.gelu", layer=self.index))
        inner = gelu(inner)

        projected = self.output.forward(inner, recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.ADD, hidden.shape,
            name=f"layer.{self.index}.output.residual", layer=self.index))
        return self.output_norm.forward(projected + hidden, recorder)


class ProteinBert:
    """A NumPy Protein BERT encoder.

    Args:
        config: model hyperparameters (BERT-base by default).
        weights: flat weight dictionary; synthesized deterministically when
            omitted.
        seed: seed for synthesized weights.
    """

    def __init__(self, config: Optional[BertConfig] = None,
                 weights: Optional[Dict[str, np.ndarray]] = None,
                 seed: int = 0) -> None:
        self.config = config or BertConfig()
        if weights is None:
            weights = initialize_weights(self.config, seed=seed)
        else:
            validate_weights(weights, self.config)
        self.weights = weights
        self.token_embedding = Embedding(weights["embeddings.token"],
                                         name="embeddings.token")
        self.position_embedding = Embedding(weights["embeddings.position"],
                                            name="embeddings.position")
        self.embedding_norm = LayerNorm(
            weights["embeddings.layernorm.gamma"],
            weights["embeddings.layernorm.beta"],
            eps=self.config.layer_norm_eps, name="embeddings.layernorm")
        self.layers = [EncoderLayer(self.config, weights, i)
                       for i in range(self.config.num_layers)]

    def embed(self, token_ids: np.ndarray,
              recorder: Optional[List[Op]] = None) -> np.ndarray:
        """Token + position embeddings followed by layer norm."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, seq)")
        batch, seq = token_ids.shape
        if seq > self.config.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds max_position "
                f"{self.config.max_position}")
        tokens = self.token_embedding.forward(token_ids, recorder)
        positions = self.position_embedding.forward(
            np.tile(np.arange(seq), (batch, 1)), recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.ADD, tokens.shape, name="embeddings.add"))
        return self.embedding_norm.forward(tokens + positions, recorder)

    def forward(self, token_ids: np.ndarray,
                attention_mask: Optional[np.ndarray] = None,
                recorder: Optional[List[Op]] = None) -> np.ndarray:
        """Full encoder forward pass.

        Args:
            token_ids: ``(batch, seq)`` integer array.
            attention_mask: optional ``(batch, seq)`` 1/0 mask.
            recorder: optional list the ATen op stream is appended to.

        Returns:
            Final hidden states, shape ``(batch, seq, hidden)``.
        """
        hidden = self.embed(token_ids, recorder)
        for layer in self.layers:
            hidden = layer.forward(hidden, attention_mask, recorder)
        return hidden

    def features(self, token_ids: np.ndarray,
                 attention_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Mean-pooled per-sequence features for downstream tasks.

        Pools final hidden states over real (unmasked) tokens, the standard
        TAPE-style feature extraction the binding study uses.
        """
        hidden = self.forward(token_ids, attention_mask)
        if attention_mask is None:
            return hidden.mean(axis=1)
        mask = attention_mask[..., None].astype(np.float32)
        totals = (hidden * mask).sum(axis=1)
        counts = np.maximum(mask.sum(axis=1), 1.0)
        return totals / counts
