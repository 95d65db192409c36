"""Tests for the calibration solver and the operational intensities."""

import dataclasses

import pytest

from repro.baselines import a100_spec, tpu_v3_spec
from repro.dataflow import DataflowKind
from repro.model import protein_bert_base
from repro.profiling import (
    dataflow_intensities,
    intensity_report,
    machine_balance,
)
from tests.oracles.calibration import (
    CalibrationTarget,
    calibrate,
    calibration_residual,
)


class TestCalibrationSolver:
    def test_reproduces_baked_a100_constants(self):
        # Re-solving from a perturbed start recovers the shipped numbers.
        target = CalibrationTarget(throughput=49.8, matmul_share=0.48)
        start = dataclasses.replace(a100_spec(), matmul_efficiency=0.5,
                                    elementwise_efficiency=0.5)
        solved = calibrate(start, target)
        assert solved.matmul_efficiency \
            == pytest.approx(a100_spec().matmul_efficiency, rel=0.05)
        assert solved.elementwise_efficiency \
            == pytest.approx(a100_spec().elementwise_efficiency, rel=0.05)

    def test_residuals_near_zero_after_calibration(self):
        target = CalibrationTarget(throughput=49.8, matmul_share=0.48)
        throughput_err, share_err = calibration_residual(a100_spec(),
                                                         target)
        assert abs(throughput_err) < 0.02
        assert abs(share_err) < 0.02

    def test_custom_target(self):
        target = CalibrationTarget(throughput=100.0, matmul_share=0.6,
                                   batch=32, seq_len=256)
        solved = calibrate(tpu_v3_spec(), target)
        throughput_err, share_err = calibration_residual(solved, target)
        assert abs(throughput_err) < 0.05
        assert abs(share_err) < 0.05

    def test_target_validation(self):
        with pytest.raises(ValueError):
            CalibrationTarget(throughput=-1.0, matmul_share=0.5)
        with pytest.raises(ValueError):
            CalibrationTarget(throughput=10.0, matmul_share=1.5)


class TestOperationalIntensity:
    def test_dataflow3_is_least_intense(self):
        points = dataflow_intensities(protein_bert_base(), seq_len=512)
        assert points[DataflowKind.DATAFLOW_3].intensity \
            < 0.5 * points[DataflowKind.DATAFLOW_1].intensity
        assert points[DataflowKind.DATAFLOW_3].intensity \
            < 0.5 * points[DataflowKind.DATAFLOW_2].intensity

    def test_dataflow3_is_link_bound_on_best_perf(self):
        points = dataflow_intensities(protein_bert_base(), seq_len=512)
        balance = machine_balance()
        assert points[DataflowKind.DATAFLOW_3].intensity < balance
        assert points[DataflowKind.DATAFLOW_1].intensity > balance

    def test_report_renders(self):
        text = intensity_report()
        assert "machine balance" in text
        assert "link" in text
