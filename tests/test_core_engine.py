"""Tests for the public ProSEEngine API and the paper's headline results.

These are the repository's acceptance tests: the *shapes* of the paper's
evaluation — who wins, by roughly what factor, where crossovers fall —
must hold at the evaluation operating point (512 tokens).
"""

import pytest

from repro import (
    ProSEEngine,
    best_perf,
    best_perf_plus,
    homogeneous,
    protein_bert_base,
)
from repro.arch import infinite_link, nvlink


@pytest.fixture(scope="module")
def engine():
    return ProSEEngine()


@pytest.fixture(scope="module")
def report(engine):
    return engine.simulate(batch=128, seq_len=512)


class TestInferenceReport:
    def test_config_name(self, report):
        assert report.config_name == "BestPerf"

    def test_throughput_in_expected_band(self, report):
        assert 150 < report.throughput < 350

    def test_system_power_near_thirty_watts(self, report):
        assert 25 < report.system_power_watts < 40

    def test_efficiency_consistent(self, report):
        assert report.efficiency == pytest.approx(
            report.throughput / report.system_power_watts)


class TestHeadlineSpeedups:
    """Paper abstract and Section 4.3 claims."""

    def test_speedup_over_a100_at_nvlink2(self, engine):
        # "a speedup of 3.9-4.7x over the A100 ... with NVLink 2.0"
        comparison = engine.compare(engine.a100, batch=128, seq_len=512)
        assert 3.5 <= comparison.speedup <= 5.2

    def test_speedup_over_tpuv3_at_nvlink2(self, engine):
        # "a speedup of 3.1-3.8x over TPUv3 with NVLink 2.0"
        comparison = engine.compare(engine.tpu_v3, batch=128, seq_len=512)
        assert 2.8 <= comparison.speedup <= 4.3

    def test_max_speedup_over_a100(self):
        # "up to 6.9x speedup ... compared to one NVIDIA A100 GPU"
        engine = ProSEEngine(best_perf_plus())
        comparison = engine.compare(engine.a100, batch=128, seq_len=512)
        assert 6.0 <= comparison.speedup <= 8.0

    def test_max_speedup_over_tpus(self):
        # "up to 5.5x (12.7x) speedup ... compared to TPUv3 (TPUv2)"
        engine = ProSEEngine(best_perf_plus())
        v3 = engine.compare(engine.tpu_v3, batch=128, seq_len=512)
        v2 = engine.compare(engine.tpu_v2, batch=128, seq_len=512)
        assert 4.8 <= v3.speedup <= 6.5
        assert 11.0 <= v2.speedup <= 15.0

    def test_power_efficiency_orders_of_magnitude(self, engine):
        # "two to three orders of magnitude better efficiency" /
        # "48x power efficiency" vs A100, "173x (249x)" vs TPUv3 (TPUv2).
        a100 = engine.compare(engine.a100, batch=128, seq_len=512)
        v3 = engine.compare(engine.tpu_v3, batch=128, seq_len=512)
        v2 = engine.compare(engine.tpu_v2, batch=128, seq_len=512)
        assert 40 <= a100.efficiency_gain <= 90
        assert 150 <= v3.efficiency_gain <= 300
        assert 220 <= v2.efficiency_gain <= 420

    def test_efficiency_ranking(self, engine):
        # Gains vs TPUv2 > TPUv3 > A100, as in Figure 19.
        gains = [engine.compare(device, batch=64,
                                seq_len=512).efficiency_gain
                 for device in (engine.a100, engine.tpu_v3, engine.tpu_v2)]
        assert gains[0] < gains[1] < gains[2]


class TestArchitecturalClaims:
    def test_homogeneous_loses_even_at_infinite_bandwidth(self):
        # "homogeneous designs cannot deliver the desired level of
        # performance even at infinite bandwidth".
        config = protein_bert_base()
        hetero = ProSEEngine(best_perf().with_link(infinite_link()),
                             config).simulate(batch=64, seq_len=512)
        homog = ProSEEngine(homogeneous().with_link(infinite_link()),
                            config).simulate(batch=64, seq_len=512)
        assert hetero.throughput > homog.throughput

    def test_heterogeneity_gap_grows_with_length(self):
        config = protein_bert_base()
        def ratio(seq_len):
            hetero = ProSEEngine(best_perf(), config).simulate(
                batch=32, seq_len=seq_len)
            homog = ProSEEngine(homogeneous(), config).simulate(
                batch=32, seq_len=seq_len)
            return hetero.throughput / homog.throughput
        assert ratio(1024) > ratio(128)

    def test_bandwidth_helps_best_perf_plus_more(self):
        # BestPerf+ "demands faster links"; BestPerf saturates earlier.
        config = protein_bert_base()
        def gain(hardware):
            slow = ProSEEngine(hardware.with_link(nvlink(2, 0.9)),
                               config).simulate(batch=64, seq_len=512)
            fast = ProSEEngine(hardware.with_link(infinite_link()),
                               config).simulate(batch=64, seq_len=512)
            return fast.throughput / slow.throughput
        assert gain(best_perf_plus()) > gain(best_perf())

    def test_prose_stays_above_one_inference_per_watt_at_512(self, report):
        # Figure 1: ProSE remains usable (> 1 inf/s/W) at protein lengths
        # where commodity platforms fall below 1.
        assert report.efficiency > 1.0
