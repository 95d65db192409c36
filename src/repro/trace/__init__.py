"""ATen-style op taxonomy, recorder, and symbolic tracer."""

from .ops import (
    BF16_BYTES,
    FIGURE3_CATEGORIES,
    FP32_BYTES,
    Op,
    OpKind,
    bmm_op,
    elementwise_op,
    matmul_op,
)
from .recorder import TraceRecorder, maybe_record
from .tracer import (
    TraceSpec,
    count_by_kind,
    flops_by_category,
    matmul_shapes,
    trace_embeddings,
    trace_layer,
    trace_model,
)

__all__ = [
    "BF16_BYTES",
    "FIGURE3_CATEGORIES",
    "FP32_BYTES",
    "Op",
    "OpKind",
    "TraceRecorder",
    "TraceSpec",
    "bmm_op",
    "count_by_kind",
    "elementwise_op",
    "flops_by_category",
    "matmul_op",
    "matmul_shapes",
    "maybe_record",
    "trace_embeddings",
    "trace_layer",
    "trace_model",
]
