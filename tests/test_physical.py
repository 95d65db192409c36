"""Tests for the physical model: scaling, synthesis anchors, SRAM, power."""

import pytest

from repro.arch import (
    MATMUL_FREQUENCY,
    SIMD_FREQUENCY,
    best_perf,
    homogeneous,
    table4_configs,
)
from repro.physical import (
    TABLE2_ROWS,
    characteristics,
    input_buffer_bits,
    power_area_table,
    power_report,
    scale_area,
    scale_delay,
    scale_frequency,
    scale_power,
    system_power_watts,
    table2,
    validate_clock_feasibility,
)
from repro.sched import HOST_POWER_WATTS
from tests.oracles.sram import synthesize_sram


class TestScaling:
    def test_identity_scaling(self):
        assert scale_power(100.0, 45, 45).value == pytest.approx(100.0)

    def test_power_improves_toward_7nm(self):
        assert scale_power(100.0, 45, 7).value < 100.0

    def test_area_shrinks_toward_7nm(self):
        assert scale_area(1.0, 45, 7).value < 0.1

    def test_frequency_rises_toward_7nm(self):
        assert scale_frequency(1.0, 45, 7).value > 1.0

    def test_delay_and_frequency_are_inverse(self):
        delay = scale_delay(1.0, 45, 7)
        frequency = scale_frequency(1.0, 45, 7)
        assert delay.value * frequency.value == pytest.approx(1.0)

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            scale_power(1.0, 45, 5)

    def test_scaling_composes(self):
        via_15 = scale_power(scale_power(100.0, 45, 15).value, 15, 7).value
        direct = scale_power(100.0, 45, 7).value
        assert via_15 == pytest.approx(direct)


class TestTable2Anchors:
    @pytest.mark.parametrize("key", sorted(TABLE2_ROWS))
    def test_anchored_rows_verbatim(self, key):
        size, gelu, exp = key
        row = characteristics(size, gelu, exp)
        freq, power, inbuf_power, area, inbuf_area = TABLE2_ROWS[key]
        assert row.frequency_mhz == freq
        assert row.power_mw == power
        assert row.inbuf_power_mw == inbuf_power
        assert row.area_mm2 == area
        assert row.inbuf_area_mm2 == inbuf_area

    def test_percent_columns_match_paper(self):
        row = characteristics(16, False, False)
        assert row.percent_a100_power == pytest.approx(0.067, abs=0.005)
        assert row.percent_a100_area == pytest.approx(0.026, abs=0.005)

    def test_interpolated_point_sane(self):
        # 16x16 with both LUTs is not in Table 2; must interpolate.
        row = characteristics(16, True, True)
        base = characteristics(16, False, False)
        assert row.power_mw > base.power_mw
        assert row.area_mm2 > base.area_mm2
        assert row.frequency_mhz == pytest.approx(858.1)

    def test_unseen_size_interpolated(self):
        row = characteristics(48, False, False)
        assert (characteristics(32, False, False).power_mw
                < row.power_mw
                < characteristics(64, False, False).power_mw)

    def test_table2_has_ten_rows(self):
        assert len(table2()) == 10

    def test_clock_feasibility(self):
        assert validate_clock_feasibility(MATMUL_FREQUENCY, SIMD_FREQUENCY)
        assert not validate_clock_feasibility(2.0e9, SIMD_FREQUENCY)


class TestSram:
    def test_power_grows_with_bits(self):
        small = synthesize_sram(1024, access_hz=1e9)
        large = synthesize_sram(65536, access_hz=1e9)
        assert large.total_power_mw > small.total_power_mw
        assert large.area_mm2 > small.area_mm2

    def test_scaling_applied(self):
        at_45 = synthesize_sram(8192, access_hz=1e9, node_nm=45)
        at_7 = synthesize_sram(8192, access_hz=1e9, node_nm=7)
        assert at_7.area_mm2 < at_45.area_mm2
        assert at_7.total_power_mw < at_45.total_power_mw

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            synthesize_sram(0, access_hz=1e9)

    def test_input_buffer_bits_scale_with_array(self):
        assert input_buffer_bits(64) > input_buffer_bits(16)
        # Streaming part: 2 buffers x 8 deep x n wide x 16 bits.
        assert input_buffer_bits(16, depth=8) \
            == 2 * 8 * 16 * 16 + 16 * 768 * 16


class TestPowerReport:
    def test_homogeneous_matches_table4_exactly(self):
        # 4x the 64x64 both-LUT row: 2662.9 mW each, 2.983 mm² each.
        report = power_report(homogeneous())
        assert report.accelerator_power_w * 1000 \
            == pytest.approx(10651.6, abs=0.5)
        assert report.area_mm2 == pytest.approx(11.93, abs=0.01)

    def test_best_perf_close_to_table4(self):
        report = power_report(best_perf())
        assert report.accelerator_power_w * 1000 \
            == pytest.approx(12994, rel=0.10)
        assert report.area_mm2 == pytest.approx(12.75, rel=0.02)

    def test_host_power_constant(self):
        report = power_report(best_perf())
        assert report.host_power_w == pytest.approx(HOST_POWER_WATTS)
        assert HOST_POWER_WATTS == pytest.approx(
            50.21 * 0.214 + 6.23, abs=1e-6)

    def test_system_power_is_sum(self):
        report = power_report(best_perf())
        assert report.system_power_w == pytest.approx(
            report.accelerator_power_w + report.host_power_w)

    def test_per_group_rows_sum(self):
        report = power_report(best_perf())
        assert sum(power for _, power, _ in report.per_group) \
            == pytest.approx(report.accelerator_power_w)
        assert sum(area for _, _, area in report.per_group) \
            == pytest.approx(report.area_mm2)

    def test_no_input_buffer_cheaper(self):
        import dataclasses
        with_buffer = power_report(best_perf())
        without = power_report(
            dataclasses.replace(best_perf(), use_input_buffer=False))
        assert without.accelerator_power_w < with_buffer.accelerator_power_w

    def test_power_area_table_covers_table4(self):
        table = power_area_table(table4_configs())
        assert set(table) == {"BestPerf", "MostEfficient", "Homogeneous",
                              "BestPerf+", "MostEfficient+",
                              "Homogeneous+"}

    def test_prose_system_power_near_thirty_watts(self):
        # The efficiency headline numbers assume ~30 W system power.
        assert 25 < system_power_watts(best_perf()) < 40
