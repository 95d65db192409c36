"""Baseline-model calibration solver.

The A100/TPU device models carry exactly two free scalars each —
``matmul_efficiency`` and ``elementwise_efficiency``.  This module is the
solver that produced the constants baked into :mod:`repro.baselines.gpu`
and :mod:`repro.baselines.tpu`: given a target accelerated-portion
throughput and a target matmul share of total runtime at a reference
operating point, it splits the time budget between the GEMM and
elementwise cost pools and rescales the two efficiencies to match.

The tests re-solve from a perturbed start and check that the solver
recovers the shipped constants, which keeps the calibration
reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.baselines.roofline import OTHER_KINDS, DeviceSpec, RooflineDevice
from repro.model.config import BertConfig, protein_bert_base
from repro.trace.ops import OpKind
from repro.trace.tracer import TraceSpec, trace_model


@dataclass(frozen=True)
class CalibrationTarget:
    """What the calibrated device must reproduce.

    Attributes:
        throughput: accelerated-portion inferences/second at the
            reference operating point.
        matmul_share: fraction of accelerated time spent in GEMMs.
        batch / seq_len: the reference operating point.
    """

    throughput: float
    matmul_share: float
    batch: int = 128
    seq_len: int = 512

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ValueError("target throughput must be positive")
        if not 0 < self.matmul_share < 1:
            raise ValueError("matmul share must be in (0, 1)")


def _split_times(spec: DeviceSpec, config: BertConfig,
                 target: CalibrationTarget) -> Tuple[float, float]:
    """(GEMM seconds, elementwise seconds) for the reference batch."""
    device = RooflineDevice(spec)
    ops = trace_model(TraceSpec(config, batch=target.batch,
                                seq_len=target.seq_len))
    gemm = elementwise = 0.0
    for op in ops:
        if op.kind in OTHER_KINDS:
            continue
        seconds = device.op_seconds(op)
        if op.kind in (OpKind.MATMUL, OpKind.BMM):
            gemm += seconds
        else:
            elementwise += seconds
    return gemm, elementwise


def calibrate(spec: DeviceSpec, target: CalibrationTarget,
              config: Optional[BertConfig] = None,
              iterations: int = 8) -> DeviceSpec:
    """Solve the two efficiency scalars against ``target``.

    Time scales inversely with each efficiency, so the fixed-point
    converges in a handful of iterations (kernel-launch overheads make it
    slightly nonlinear).

    Returns:
        A copy of ``spec`` with calibrated efficiencies.
    """
    config = config or protein_bert_base()
    total_budget = target.batch / target.throughput
    gemm_budget = target.matmul_share * total_budget
    elementwise_budget = (1.0 - target.matmul_share) * total_budget
    for _ in range(iterations):
        gemm, elementwise = _split_times(spec, config, target)
        spec = dataclasses.replace(
            spec,
            matmul_efficiency=float(np.clip(
                spec.matmul_efficiency * gemm / gemm_budget, 1e-4, 1.0)),
            elementwise_efficiency=float(np.clip(
                spec.elementwise_efficiency * elementwise
                / elementwise_budget, 1e-4, 1.0)))
    return spec


def calibration_residual(spec: DeviceSpec, target: CalibrationTarget,
                         config: Optional[BertConfig] = None
                         ) -> Tuple[float, float]:
    """(throughput error, matmul-share error), both relative.

    Zero residuals mean the spec reproduces the target exactly.
    """
    config = config or protein_bert_base()
    gemm, elementwise = _split_times(spec, config, target)
    total = gemm + elementwise
    throughput = target.batch / total
    share = gemm / total
    return (throughput / target.throughput - 1.0,
            share / target.matmul_share - 1.0)
