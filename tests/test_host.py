"""Tests for the host CPU model."""

import pytest

from repro.sched import (
    CPU_ACTIVE_POWER_WATTS,
    CPU_DUTY_CYCLE,
    DRAM_POWER_WATTS,
    HOST_POWER_WATTS,
    HostModel,
)
from repro.trace import OpKind, elementwise_op


class TestHostPowerConstants:
    def test_paper_measurements(self):
        # Section 4.1: RAPL measured 50.21 W at 21.4% duty plus 6.23 W
        # DRAM.
        assert CPU_ACTIVE_POWER_WATTS == 50.21
        assert CPU_DUTY_CYCLE == 0.214
        assert DRAM_POWER_WATTS == 6.23
        assert HOST_POWER_WATTS == pytest.approx(50.21 * 0.214 + 6.23)


class TestHostModel:
    def test_elementwise_time_linear_in_elements(self):
        host = HostModel()
        small = host.op_seconds(elementwise_op(OpKind.SUM, (1000,)))
        large = host.op_seconds(elementwise_op(OpKind.SUM, (4000,)))
        assert large == pytest.approx(4 * small)

    def test_softmax_finish_two_passes(self):
        # The host finishes a softmax with a sum and a divide: one pass
        # over the scores each.
        host = HostModel(elementwise_throughput=1e9)
        finish = (elementwise_op(OpKind.SUM, (1_000_000,)),
                  elementwise_op(OpKind.DIV, (1_000_000,)))
        assert host.task_seconds(finish) == pytest.approx(2e-3)

    def test_task_seconds_sums_ops(self):
        host = HostModel()
        ops = (elementwise_op(OpKind.SUM, (1000,)),
               elementwise_op(OpKind.DIV, (1000,)))
        assert host.task_seconds(ops) == pytest.approx(
            sum(host.op_seconds(op) for op in ops))

    def test_generic_math_uses_flops(self):
        host = HostModel(flops_throughput=1e9)
        layernorm = elementwise_op(OpKind.LAYERNORM, (1000,))
        assert host.op_seconds(layernorm) == pytest.approx(
            layernorm.flops / 1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostModel(slots=0)
        with pytest.raises(ValueError):
            HostModel(elementwise_throughput=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("field", ["elementwise_throughput",
                                       "flops_throughput"])
    def test_non_finite_throughput_is_rejected(self, field, value):
        with pytest.raises(ValueError, match="^host throughputs must be "
                                             "positive and finite$"):
            HostModel(**{field: value})

    @pytest.mark.parametrize("slots", [float("nan"), float("inf"), 2.5])
    def test_non_integer_slots_are_rejected(self, slots):
        # These used to construct and then fail inside the scheduler.
        with pytest.raises(ValueError, match="^host slots must be a "
                                             "positive integer$"):
            HostModel(slots=slots)
