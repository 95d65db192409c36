"""Symbolic op tracer for Protein BERT.

Produces the exact ATen-call sequence a forward pass of
:class:`repro.model.bert.ProteinBert` emits — without executing any tensor
math — so the dataflow compiler and cycle simulator can work at sequence
lengths (e.g. 2048 tokens, batch 128) where a functional forward would be
wastefully slow.  Equivalence with the executed trace is asserted by the
test suite at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..model.config import BertConfig
from .ops import Op, OpKind, bmm_op, elementwise_op, matmul_op


@dataclass(frozen=True)
class TraceSpec:
    """Workload description the tracer expands into an op stream.

    Attributes:
        config: model hyperparameters.
        batch: number of sequences per inference batch.
        seq_len: tokens per sequence.
        with_mask: whether an attention mask is applied (adds one ADD per
            layer, exactly as the executed model does).
    """

    config: BertConfig
    batch: int = 1
    seq_len: int = 512
    with_mask: bool = False

    def __post_init__(self) -> None:
        if self.batch <= 0 or self.seq_len <= 0:
            raise ValueError("batch and seq_len must be positive")
        if self.seq_len > self.config.max_position:
            raise ValueError("seq_len exceeds the model's max_position")


def _linear_ops(rows: int, in_features: int, out_features: int,
                out_shape: Tuple[int, ...], name: str, layer: int
                ) -> List[Op]:
    """MatMul + bias Add, as :class:`repro.model.layers.Linear` records."""
    return [
        matmul_op(rows, in_features, out_features, name=name, layer=layer),
        elementwise_op(OpKind.ADD, out_shape, name=f"{name}.bias",
                       layer=layer, metadata={"vector_operand": 1.0}),
    ]


def trace_layer(spec: TraceSpec, layer: int) -> List[Op]:
    """Symbolic op stream of one encoder layer."""
    cfg = spec.config
    b, s = spec.batch, spec.seq_len
    h, heads, hd = cfg.hidden_size, cfg.num_heads, cfg.head_dim
    inter = cfg.intermediate_size
    rows = b * s
    hidden_shape = (b, s, h)
    ops: List[Op] = []

    prefix = f"layer.{layer}"
    for proj in ("query", "key", "value"):
        ops.extend(_linear_ops(rows, h, h, hidden_shape,
                               f"{prefix}.attention.{proj}", layer))
    for _ in range(3):
        ops.append(elementwise_op(OpKind.TRANSPOSE, (b, s, heads, hd),
                                  name="attention.split_heads", layer=layer))
    ops.append(bmm_op(b * heads, s, hd, s, name="attention.scores",
                      layer=layer))
    ops.append(elementwise_op(OpKind.DIV, (b, heads, s, s),
                              name="attention.scale", layer=layer,
                              metadata={"divisor": float(hd) ** 0.5}))
    if spec.with_mask:
        ops.append(elementwise_op(OpKind.ADD, (b, heads, s, s),
                                  name="attention.mask", layer=layer))
    ops.append(elementwise_op(OpKind.SOFTMAX, (b, heads, s, s),
                              name="attention.softmax", layer=layer))
    ops.append(bmm_op(b * heads, s, s, hd, name="attention.context",
                      layer=layer))
    ops.append(elementwise_op(OpKind.TRANSPOSE, (b, s, heads, hd),
                              name="attention.merge_heads", layer=layer))
    ops.extend(_linear_ops(rows, h, h, hidden_shape,
                           f"{prefix}.attention.output", layer))
    ops.append(elementwise_op(OpKind.ADD, hidden_shape,
                              name=f"{prefix}.attention.residual",
                              layer=layer))
    ops.append(elementwise_op(OpKind.LAYERNORM, hidden_shape,
                              name=f"{prefix}.attention.layernorm",
                              layer=layer))

    ops.extend(_linear_ops(rows, h, inter, (b, s, inter),
                           f"{prefix}.intermediate", layer))
    ops.append(elementwise_op(OpKind.GELU, (b, s, inter),
                              name=f"{prefix}.gelu", layer=layer))
    ops.extend(_linear_ops(rows, inter, h, hidden_shape,
                           f"{prefix}.output", layer))
    ops.append(elementwise_op(OpKind.ADD, hidden_shape,
                              name=f"{prefix}.output.residual", layer=layer))
    ops.append(elementwise_op(OpKind.LAYERNORM, hidden_shape,
                              name=f"{prefix}.output.layernorm", layer=layer))
    return ops


def trace_embeddings(spec: TraceSpec) -> List[Op]:
    """Symbolic op stream of the embedding stage."""
    b, s = spec.batch, spec.seq_len
    h = spec.config.hidden_size
    shape = (b, s, h)
    return [
        elementwise_op(OpKind.EMBEDDING, shape, name="embeddings.token"),
        elementwise_op(OpKind.EMBEDDING, shape, name="embeddings.position"),
        elementwise_op(OpKind.ADD, shape, name="embeddings.add"),
        elementwise_op(OpKind.LAYERNORM, shape, name="embeddings.layernorm"),
    ]


def trace_model(spec: TraceSpec) -> List[Op]:
    """Full symbolic op stream for one batched inference."""
    ops = trace_embeddings(spec)
    for layer in range(spec.config.num_layers):
        ops.extend(trace_layer(spec, layer))
    return ops
