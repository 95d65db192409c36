"""ATen-style op taxonomy and symbolic tracer."""

from .ops import (
    BF16_BYTES,
    FIGURE3_CATEGORIES,
    FP32_BYTES,
    Op,
    OpKind,
    bmm_op,
    elementwise_op,
    matmul_op,
    maybe_record,
)
from .tracer import (
    TraceSpec,
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
    "TraceSpec",
    "bmm_op",
    "elementwise_op",
    "matmul_op",
    "maybe_record",
    "trace_embeddings",
    "trace_layer",
    "trace_model",
]
