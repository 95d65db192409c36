"""Dataflow compiler: patterns, graph, and builder (Figures 6-8)."""

from .builder import (
    TraceStructureError,
    build_dataflow_graph,
    build_graph_for,
)
from .graph import DataflowGraph, HostTask, Node
from .seq2seq import build_seq2seq_graph
from .patterns import (
    ACCELERATOR_KINDS,
    HOST_KINDS_DATAFLOW_3,
    ArrayType,
    Dataflow,
    DataflowKind,
)

__all__ = [
    "ACCELERATOR_KINDS",
    "HOST_KINDS_DATAFLOW_3",
    "ArrayType",
    "Dataflow",
    "DataflowGraph",
    "DataflowKind",
    "HostTask",
    "Node",
    "TraceStructureError",
    "build_dataflow_graph",
    "build_graph_for",
    "build_seq2seq_graph",
]
