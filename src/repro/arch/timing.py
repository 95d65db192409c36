"""Analytic cycle/latency model for dataflows on ProSE systolic arrays.

The cycle-accurate performance simulator of Figure 15 combines three parts:
this per-dataflow timing model, the orchestration/scheduling model in
:mod:`repro.sched`, and the host-communication model.  Here we compute, for
one dataflow mapped onto one systolic array:

* matmul-mode cycles: tiled output-stationary GEMM, ``k + 2n`` cycles per
  n×n output tile (streaming fill + compute + drain), at the double-pumped
  1.6 GHz matmul clock;
* simd-mode cycles: one full left-rotation (n cycles) per resident tile per
  chained elementwise/special-function op, at the 800 MHz SIMD clock;
* streamed bytes: both GEMM operands in (with optional partial-input-buffer
  reuse of the A operand, Figure 11d), SIMD matrix operands in, and the
  final result out — but *zero* bytes for intermediates, which stay in the
  PE accumulators.

Dataflow 3 splits into accel → host → accel segments around the softmax
summation/division the host performs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import List, Tuple

from ..dataflow.patterns import Dataflow, DataflowKind
from ..trace.ops import Op, OpKind
from .config import HardwareConfig

#: Bytes per streamed element (bfloat16 datapath).
ELEMENT_BYTES = 2


@dataclass(frozen=True)
class Segment:
    """One schedulable piece of a dataflow.

    Attributes:
        resource: ``"accel"`` (occupies a systolic array + its type's link
            channel) or ``"host"`` (occupies a host CPU slot).
        compute_seconds: pure compute time of the segment.
        stream_bytes: host-link traffic attributable to the segment.
        host_flops: host-side FLOPs (host segments only).
    """

    resource: str
    compute_seconds: float
    stream_bytes: int = 0
    host_flops: int = 0


@dataclass(frozen=True)
class DataflowTiming:
    """Complete timing decomposition of one dataflow on one array.

    The per-segment aggregates (stream bytes, accel/host compute seconds,
    accel dispatch count) are precomputed once at construction: the
    orchestrator reads them per placement *and* per earliest-finish
    projection, which used to re-sum the segment generators thousands of
    times per schedule.
    """

    dataflow_name: str
    array_size: int
    segments: Tuple[Segment, ...]
    matmul_cycles: int
    simd_cycles: int
    total_stream_bytes: int = field(init=False)
    accel_compute_seconds: float = field(init=False)
    host_compute_seconds: float = field(init=False)
    #: Number of accelerator segments (= host-link dispatches performed).
    accel_segments: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_stream_bytes",
                           sum(s.stream_bytes for s in self.segments))
        object.__setattr__(self, "accel_compute_seconds",
                           reduce(add, (s.compute_seconds
                                        for s in self.segments
                                        if s.resource == "accel"), 0))
        object.__setattr__(self, "host_compute_seconds",
                           reduce(add, (s.compute_seconds
                                        for s in self.segments
                                        if s.resource == "host"), 0))
        object.__setattr__(self, "accel_segments",
                           sum(1 for s in self.segments
                               if s.resource == "accel"))


def _is_vector_operand(op: Op) -> bool:
    """True for elementwise ops whose streamed operand is a vector (bias)."""
    return any(key == "vector_operand" for key, _ in op.metadata)


def dataflow_signature(dataflow: Dataflow) -> Tuple:
    """Content key under which two dataflows share a timing decomposition.

    :func:`time_dataflow` reads only the op sequence (kind, shape,
    metadata), the dataflow kind (Dataflow 3 splits around its host
    segment), and the host-op FLOP counts — never the name or layer
    index.  Dataflows with equal signatures therefore time identically on
    a given array size and hardware config, which lets the orchestrator
    compute one :class:`DataflowTiming` for the 12 identical encoder
    layers instead of 12.
    """
    return (dataflow.kind,
            tuple((op.kind, op.shape, op.metadata) for op in dataflow.ops),
            tuple(op.flops for op in dataflow.host_ops))


def gemm_tiles(op: Op, array_size: int) -> Tuple[int, int, int]:
    """(tile_rows, tile_cols, batch) decomposition of a GEMM on the array."""
    if op.kind is OpKind.MATMUL:
        m, _, n_out = op.shape
        batch = 1
    elif op.kind is OpKind.BMM:
        batch, m, _, n_out = op.shape
    else:
        raise ValueError(f"not a GEMM op: {op.kind}")
    return (math.ceil(m / array_size), math.ceil(n_out / array_size), batch)


def gemm_cycles(op: Op, array_size: int) -> int:
    """Matmul-mode cycles for one GEMM: tiles × (k + 2n)."""
    rows, cols, batch = gemm_tiles(op, array_size)
    k = op.shape[1] if op.kind is OpKind.MATMUL else op.shape[2]
    return batch * rows * cols * (k + 2 * array_size)


def gemm_stream_bytes(op: Op, array_size: int, use_input_buffer: bool) -> int:
    """Input traffic for one tiled GEMM.

    Without the partial input buffer the design is purely streaming: the A
    operand strip re-streams for every output tile and the B operand panel
    for every tile as well (Figure 11b), so traffic scales with the tile
    count.  With the partial input buffer (Figure 11d) the local dataflow
    reuses buffered operand strips — the A strip is held across a tile row
    and shared weight panels are multicast through the per-type I/O buffer
    across arrays and tile rows — so each operand element crosses the link
    once per GEMM (the algorithmic minimum).  See DESIGN.md, "Calibration
    decisions".
    """
    rows, cols, batch = gemm_tiles(op, array_size)
    if op.kind is OpKind.MATMUL:
        m, k, n_out = op.shape
    else:
        _, m, k, n_out = op.shape
    if use_input_buffer:
        a_bytes = batch * m * k * ELEMENT_BYTES
        b_bytes = batch * k * n_out * ELEMENT_BYTES
    else:
        a_bytes = batch * rows * cols * array_size * k * ELEMENT_BYTES
        b_bytes = batch * rows * cols * k * array_size * ELEMENT_BYTES
    return a_bytes + b_bytes


def simd_cycles_for(elements: int, array_size: int) -> int:
    """SIMD-mode cycles to apply one op to ``elements`` resident values.

    Each resident n×n tile needs one full left rotation: n cycles, during
    which all n² elements pass the n SIMD ALUs (n per cycle).
    """
    return math.ceil(elements / array_size)


def simd_stream_bytes(op: Op) -> int:
    """Streamed operand traffic for one SIMD op.

    Matrix operands (residual additions) stream fully; vector operands
    (biases) stream once per output column — negligible, counted exactly;
    reciprocal-constant multiplies, Exp, and GELU stream nothing.
    """
    if op.kind is OpKind.ADD and not _is_vector_operand(op):
        return op.elements * ELEMENT_BYTES
    if op.kind is OpKind.ADD:
        return op.shape[-1] * ELEMENT_BYTES
    return 0


def time_dataflow(dataflow: Dataflow, array_size: int,
                  config: HardwareConfig,
                  host_elementwise_throughput: float = 2.0e10
                  ) -> DataflowTiming:
    """Time one dataflow on one array of ``array_size``.

    Args:
        dataflow: the op chain to execute.
        array_size: n of the target n×n systolic array.
        config: clocks and input-buffer provisioning.
        host_elementwise_throughput: host softmax elements/second (used for
            the Dataflow 3 host segment; the scheduler may override).

    Returns:
        A :class:`DataflowTiming` whose segments alternate accel/host for
        Dataflow 3 and form a single accel segment otherwise.
    """
    segments: List[Segment] = []
    total_matmul_cycles = 0
    total_simd_cycles = 0

    accel_matmul_cycles = 0
    accel_simd_cycles = 0
    accel_bytes = 0
    result_elements = 0

    def flush_accel() -> None:
        nonlocal accel_matmul_cycles, accel_simd_cycles, accel_bytes
        if accel_matmul_cycles == 0 and accel_simd_cycles == 0:
            return
        seconds = (accel_matmul_cycles / config.matmul_frequency
                   + accel_simd_cycles / config.simd_frequency)
        segments.append(Segment(resource="accel", compute_seconds=seconds,
                                stream_bytes=accel_bytes))
        accel_matmul_cycles = accel_simd_cycles = accel_bytes = 0

    host_iter = iter(dataflow.host_ops)
    for op in dataflow.ops:
        if op.kind in (OpKind.MATMUL, OpKind.BMM):
            cycles = gemm_cycles(op, array_size)
            accel_matmul_cycles += cycles
            total_matmul_cycles += cycles
            accel_bytes += gemm_stream_bytes(op, array_size,
                                             config.use_input_buffer)
            result_elements = op.elements
        else:
            cycles = simd_cycles_for(op.elements, array_size)
            if not config.chained:
                # Conventional (non-chained) systolic baseline: the resident
                # matrix drains to the host and reloads around every
                # elementwise op — global dataflow instead of ProSE's local
                # dataflow.  Three rotation passes (drain, reload, compute)
                # and a full round trip of the intermediate on the link.
                cycles *= 3
                accel_bytes += 2 * op.elements * ELEMENT_BYTES
            accel_simd_cycles += cycles
            total_simd_cycles += cycles
            accel_bytes += simd_stream_bytes(op)
            result_elements = op.elements
        if (dataflow.kind is DataflowKind.DATAFLOW_3
                and op.kind is OpKind.EXP):
            # Exp results return to the host for softmax sum + divide, then
            # the normalized probabilities stream back for the second BMM.
            accel_bytes += op.elements * ELEMENT_BYTES
            flush_accel()
            host_flops = sum(h.flops for h in host_iter)
            host_seconds = (2 * op.elements) / host_elementwise_throughput
            segments.append(Segment(resource="host",
                                    compute_seconds=host_seconds,
                                    host_flops=host_flops))

    accel_bytes += result_elements * ELEMENT_BYTES   # final result out
    flush_accel()
    return DataflowTiming(dataflow_name=dataflow.name,
                          array_size=array_size,
                          segments=tuple(segments),
                          matmul_cycles=total_matmul_cycles,
                          simd_cycles=total_simd_cycles)
