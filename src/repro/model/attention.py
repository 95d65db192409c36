"""Multi-head self-attention for the Protein BERT encoder.

The attention sublayer produces exactly the op mix the paper's dataflow
analysis keys on: four large MatMuls (Q/K/V projections and the output
projection → Dataflow 1) and the batched dot products with scaling and
softmax (→ Dataflow 3).  Per-head dot products have the small shapes the
paper quotes (m ≈ seq·heads-batched, k = 64), which drive the choice of
small E-Type systolic arrays.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..trace.ops import Op, OpKind, bmm_op, elementwise_op, maybe_record
from .activations import softmax
from .config import BertConfig
from .layers import Linear

#: Large negative number used to mask out padding positions before softmax.
ATTENTION_MASK_VALUE = -1e9


class MultiHeadAttention:
    """Scaled dot-product multi-head attention.

    Args:
        config: model hyperparameters.
        query / key / value / output: the four projection layers.
        layer: encoder layer index for trace provenance.
    """

    def __init__(self, config: BertConfig, query: Linear, key: Linear,
                 value: Linear, output: Linear, layer: int = -1) -> None:
        self.config = config
        self.query = query
        self.key = key
        self.value = value
        self.output = output
        self.layer = layer

    def forward(self, hidden: np.ndarray,
                attention_mask: Optional[np.ndarray] = None,
                recorder: Optional[List[Op]] = None) -> np.ndarray:
        """Run attention over ``hidden`` of shape ``(batch, seq, hidden)``.

        Args:
            hidden: input activations.
            attention_mask: optional ``(batch, seq)`` array with 1 for real
                tokens and 0 for padding.
            recorder: optional list the op stream is appended to.

        Returns:
            Context of shape ``(batch, seq, hidden)`` (pre-residual).
        """
        batch, seq, width = hidden.shape
        cfg = self.config
        if width != cfg.hidden_size:
            raise ValueError("attention: hidden width mismatch")
        heads, head_dim = cfg.num_heads, cfg.head_dim

        q = self.query.forward(hidden, recorder)
        k = self.key.forward(hidden, recorder)
        v = self.value.forward(hidden, recorder)

        def split_heads(x: np.ndarray) -> np.ndarray:
            maybe_record(recorder, elementwise_op(
                OpKind.TRANSPOSE, (batch, seq, heads, head_dim),
                name="attention.split_heads", layer=self.layer))
            return x.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)

        q, k, v = split_heads(q), split_heads(k), split_heads(v)

        # Attention scores: per-(batch, head) dot products — the paper's
        # "batched matrix multiplications ... the smallest matrices".
        maybe_record(recorder, bmm_op(
            batch * heads, seq, head_dim, seq,
            name="attention.scores", layer=self.layer))
        scores = q @ k.transpose(0, 1, 3, 2)

        # Scale by 1/sqrt(d): an elementwise Matrix Div in the ATen trace.
        maybe_record(recorder, elementwise_op(
            OpKind.DIV, (batch, heads, seq, seq),
            name="attention.scale", layer=self.layer,
            metadata={"divisor": float(np.sqrt(head_dim))}))
        scores /= np.sqrt(head_dim).astype(np.float32)

        if attention_mask is not None:
            if attention_mask.shape != (batch, seq):
                raise ValueError("attention_mask must be (batch, seq)")
            maybe_record(recorder, elementwise_op(
                OpKind.ADD, (batch, heads, seq, seq),
                name="attention.mask", layer=self.layer))
            bias = (1.0 - attention_mask[:, None, None, :]) * ATTENTION_MASK_VALUE
            scores += bias.astype(np.float32)

        maybe_record(recorder, elementwise_op(
            OpKind.SOFTMAX, (batch, heads, seq, seq),
            name="attention.softmax", layer=self.layer))
        probabilities = softmax(scores, axis=-1)

        # Weighted sum of values: the second batched MatMul of Dataflow 3.
        maybe_record(recorder, bmm_op(
            batch * heads, seq, seq, head_dim,
            name="attention.context", layer=self.layer))
        context = probabilities @ v

        maybe_record(recorder, elementwise_op(
            OpKind.TRANSPOSE, (batch, seq, heads, head_dim),
            name="attention.merge_heads", layer=self.layer))
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, width)
        return self.output.forward(context, recorder)
