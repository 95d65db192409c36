"""Dataflow construction: group a traced op stream into Dataflows 1/2/3.

Implements the "Dataflow Construction" stage of the paper's Figure 15: the
raw ATen call sequence from the tracer is pattern-matched into the three
accelerated operation sequences, plus host tasks for everything else.  The
builder validates the structure as it consumes ops, so a model change that
breaks the expected patterns fails loudly rather than mis-scheduling.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..model.config import BertConfig
from ..trace.ops import Op, OpKind, elementwise_op
from ..trace.tracer import TraceSpec, trace_model
from .graph import DataflowGraph, HostTask, Node
from .patterns import Dataflow, DataflowKind


class TraceStructureError(ValueError):
    """Raised when the traced op stream does not match Protein BERT."""


class _Cursor:
    """Sequential consumer over the traced op list (transposes skipped)."""

    def __init__(self, ops: Sequence[Op]) -> None:
        self._ops = [op for op in ops if op.kind is not OpKind.TRANSPOSE]
        self._index = 0

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._ops)

    def peek(self) -> Optional[Op]:
        if self.exhausted:
            return None
        return self._ops[self._index]

    def take(self, kind: OpKind, context: str) -> Op:
        op = self.peek()
        if op is None or op.kind is not kind:
            found = "end of trace" if op is None else f"{op.kind} ({op.name})"
            raise TraceStructureError(
                f"expected {kind} while building {context}, found {found}")
        self._index += 1
        return op

    def take_if(self, kind: OpKind) -> Optional[Op]:
        op = self.peek()
        if op is not None and op.kind is kind:
            self._index += 1
            return op
        return None


def _split_softmax(softmax: Op) -> Tuple[Op, Op, Op]:
    """Split aten::softmax into accel Exp + host Sum + host Div.

    ProSE runs the exponentials on the E-Type arrays and hands the summation
    and division to the host CPU (paper: "The summation and the division of
    the softmax activation are performed on the CPU").
    """
    exp = elementwise_op(OpKind.EXP, softmax.shape,
                         name=f"{softmax.name}.exp", layer=softmax.layer)
    total = elementwise_op(OpKind.SUM, softmax.shape,
                           name=f"{softmax.name}.sum", layer=softmax.layer)
    divide = elementwise_op(OpKind.DIV, softmax.shape,
                            name=f"{softmax.name}.divide",
                            layer=softmax.layer)
    return exp, total, divide


def build_dataflow_graph(ops: Sequence[Op]) -> DataflowGraph:
    """Group a traced Protein BERT op stream into a dataflow DAG.

    Args:
        ops: the full op stream of one inference, as produced by
            :func:`repro.trace.tracer.trace_model` or recorded from a real
            forward pass.

    Returns:
        A :class:`DataflowGraph` whose accelerated nodes follow the paper's
        per-layer mapping (Figure 7): 4× Dataflow 1 + 1× Dataflow 3 in the
        attention sublayer, 1× Dataflow 2 in the intermediate sublayer, and
        1× Dataflow 1 in the output sublayer.

    Raises:
        TraceStructureError: when the stream does not match the model.
    """
    cursor = _Cursor(ops)
    nodes: List[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    # Embedding stage: token + position gathers, add, layer norm — host work.
    embed_ops = (
        cursor.take(OpKind.EMBEDDING, "embeddings"),
        cursor.take(OpKind.EMBEDDING, "embeddings"),
        cursor.take(OpKind.ADD, "embeddings"),
        cursor.take(OpKind.LAYERNORM, "embeddings"),
    )
    previous = add(HostTask(ops=embed_ops, name="embeddings", layer=-1))

    layer = 0
    while not cursor.exhausted:
        context = f"layer {layer}"

        projection_ids = []
        for proj in ("query", "key", "value"):
            mm = cursor.take(OpKind.MATMUL, f"{context} {proj}")
            bias = cursor.take(OpKind.ADD, f"{context} {proj} bias")
            projection_ids.append(add(Dataflow(
                kind=DataflowKind.DATAFLOW_1, ops=(mm, bias),
                name=mm.name, layer=layer, deps=(previous,))))

        scores = cursor.take(OpKind.BMM, f"{context} attention scores")
        scale = cursor.take(OpKind.DIV, f"{context} attention scale")
        mask = cursor.take_if(OpKind.ADD)
        softmax = cursor.take(OpKind.SOFTMAX, f"{context} softmax")
        exp, host_sum, host_div = _split_softmax(softmax)
        rhs = cursor.take(OpKind.BMM, f"{context} attention context")
        accel_ops: Tuple[Op, ...] = (scores, scale)
        if mask is not None:
            accel_ops += (mask,)
        accel_ops += (exp, rhs)
        attention_df3 = add(Dataflow(
            kind=DataflowKind.DATAFLOW_3, ops=accel_ops,
            host_ops=(host_sum, host_div),
            name=f"layer.{layer}.attention.scores", layer=layer,
            deps=tuple(projection_ids)))

        out_mm = cursor.take(OpKind.MATMUL, f"{context} attention output")
        out_bias = cursor.take(OpKind.ADD, f"{context} attention output bias")
        residual = cursor.take(OpKind.ADD, f"{context} attention residual")
        attention_out = add(Dataflow(
            kind=DataflowKind.DATAFLOW_1, ops=(out_mm, out_bias, residual),
            name=out_mm.name, layer=layer, deps=(attention_df3,)))

        norm1 = cursor.take(OpKind.LAYERNORM, f"{context} attention norm")
        norm1_id = add(HostTask(ops=(norm1,), name=norm1.name, layer=layer,
                                deps=(attention_out,)))

        inter_mm = cursor.take(OpKind.MATMUL, f"{context} intermediate")
        inter_bias = cursor.take(OpKind.ADD, f"{context} intermediate bias")
        gelu = cursor.take(OpKind.GELU, f"{context} gelu")
        intermediate = add(Dataflow(
            kind=DataflowKind.DATAFLOW_2, ops=(inter_mm, inter_bias, gelu),
            name=inter_mm.name, layer=layer, deps=(norm1_id,)))

        ffn_mm = cursor.take(OpKind.MATMUL, f"{context} output")
        ffn_bias = cursor.take(OpKind.ADD, f"{context} output bias")
        ffn_residual = cursor.take(OpKind.ADD, f"{context} output residual")
        ffn_out = add(Dataflow(
            kind=DataflowKind.DATAFLOW_1,
            ops=(ffn_mm, ffn_bias, ffn_residual),
            name=ffn_mm.name, layer=layer, deps=(intermediate,)))

        norm2 = cursor.take(OpKind.LAYERNORM, f"{context} output norm")
        previous = add(HostTask(ops=(norm2,), name=norm2.name, layer=layer,
                                deps=(ffn_out,)))
        layer += 1

    if layer == 0:
        raise TraceStructureError("trace contains no encoder layers")
    return DataflowGraph(nodes)


def build_graph_for(config: BertConfig, batch: int, seq_len: int,
                    with_mask: bool = False) -> DataflowGraph:
    """Trace a workload symbolically and build its dataflow graph."""
    spec = TraceSpec(config=config, batch=batch, seq_len=seq_len,
                     with_mask=with_mask)
    return build_dataflow_graph(trace_model(spec))
