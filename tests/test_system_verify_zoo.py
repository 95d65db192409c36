"""Tests for the multi-instance system, verify harness, zoo, and memory."""

import pytest

from repro.model import MODEL_ZOO, get_model_config, protein_bert_tiny, zoo_names
from repro.model.zoo import describe
from repro.profiling import (
    footprint_sweep,
    format_sweep,
    model_footprint,
    prose_device_bytes,
)
from repro.system import ProSESystem, format_scaling, scaling_study
from tests.oracles.differential import DifferentialHarness, campaign_report

FAST_CONFIG = protein_bert_tiny(num_layers=2, hidden_size=128, num_heads=4,
                                intermediate_size=512, max_position=256)


class TestModelZoo:
    def test_known_models(self):
        assert {"tape-bert", "esm-1b"} <= set(MODEL_ZOO)

    def test_tape_is_bert_base(self):
        config = get_model_config("tape-bert")
        assert (config.num_layers, config.hidden_size) == (12, 768)

    def test_esm1b_scale(self):
        config = get_model_config("esm-1b")
        assert config.num_layers == 33
        assert 600e6 < config.parameter_count < 700e6

    def test_zoo_names_sorted_by_size(self):
        names = zoo_names()
        sizes = [MODEL_ZOO[name].parameter_count for name in names]
        assert sizes == sorted(sizes)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            get_model_config("alphafold")

    def test_describe(self):
        assert "33L" in describe("esm-1b")


class TestMemoryModel:
    def test_quadratic_term_scales_quadratically(self):
        small = model_footprint(get_model_config("tape-bert"), 256)
        large = model_footprint(get_model_config("tape-bert"), 1024)
        assert large.quadratic_activation_bytes \
            == 16 * small.quadratic_activation_bytes
        assert large.linear_activation_bytes \
            == 4 * small.linear_activation_bytes

    def test_max_batch_decreases_with_length(self):
        config = get_model_config("tape-bert")
        batches = [model_footprint(config, seq).max_batch()
                   for seq in (128, 512, 2048)]
        assert batches[0] > batches[1] > batches[2]

    def test_max_batch_order_of_magnitude_matches_paper(self):
        # Paper's A100 batch table: 512 at seq 512, 64 at seq 2048.
        config = get_model_config("tape-bert")
        assert 256 <= model_footprint(config, 512).max_batch() <= 8192
        assert 32 <= model_footprint(config, 2048).max_batch() <= 1024

    def test_out_of_range_length_rejected(self):
        with pytest.raises(ValueError):
            model_footprint(get_model_config("tape-bert"), 0)

    def test_prose_storage_is_tiny_and_fixed(self):
        # The streaming design's whole point: ~1 MiB, length-independent.
        storage = prose_device_bytes()
        assert storage < 4 * 2 ** 20

    def test_format_sweep_renders(self):
        text = format_sweep(footprint_sweep(lengths=(128, 512)))
        assert "ProSE on-accelerator storage" in text


class TestDifferentialHarness:
    def test_campaign_all_pass(self):
        harness = DifferentialHarness(seed=3, max_size=5)
        results = harness.run_campaign(cases=12)
        assert all(result.passed for result in results), \
            campaign_report(results)

    def test_matmul_case_fields(self):
        harness = DifferentialHarness(seed=1)
        result = harness.run_matmul_case(n=4, k=6)
        assert result.exact_match
        assert result.reference_error < 0.05 * result.reference_scale

    def test_chain_cases_each_opcode(self):
        from repro.arch import SimdOpcode
        harness = DifferentialHarness(seed=2)
        for opcode in (SimdOpcode.ADD, SimdOpcode.MUL, SimdOpcode.GELU,
                       SimdOpcode.EXP):
            result = harness.run_chain_case(n=4, k=5, opcode=opcode)
            assert result.passed, result

    def test_report_mentions_counts(self):
        harness = DifferentialHarness(seed=4)
        results = harness.run_campaign(cases=4)
        assert "4 cases" in campaign_report(results)


class TestProSESystem:
    def test_four_instance_default(self):
        assert ProSESystem().instances == 4

    def test_invalid_instances_rejected(self):
        with pytest.raises(ValueError):
            ProSESystem(instances=0)

    def test_batch_must_cover_instances(self):
        with pytest.raises(ValueError):
            ProSESystem(instances=4).simulate(FAST_CONFIG, batch=2,
                                              seq_len=64)

    def test_throughput_scales_with_instances(self):
        one = ProSESystem(instances=1).simulate(FAST_CONFIG, batch=16,
                                                seq_len=64)
        four = ProSESystem(instances=4).simulate(FAST_CONFIG, batch=64,
                                                 seq_len=64)
        assert 3.0 <= four.throughput / one.throughput <= 5.0

    def test_host_power_counted_once(self):
        from repro.sched import HOST_POWER_WATTS
        from repro.physical import accelerator_power_watts
        from repro.arch import best_perf
        report = ProSESystem(instances=4).simulate(FAST_CONFIG, batch=16,
                                                   seq_len=64)
        expected = 4 * accelerator_power_watts(best_perf()) \
            + HOST_POWER_WATTS
        assert report.system_power_watts == pytest.approx(expected)

    def test_efficiency_improves_with_sharing(self):
        # The shared host amortizes: 4 instances beat 4x one-instance
        # power but not 4x throughput — efficiency per Watt rises.
        one = ProSESystem(instances=1).simulate(FAST_CONFIG, batch=16,
                                                seq_len=64)
        four = ProSESystem(instances=4).simulate(FAST_CONFIG, batch=64,
                                                 seq_len=64)
        assert four.efficiency > one.efficiency

    def test_scaling_study_format(self):
        reports = scaling_study(config=FAST_CONFIG,
                                instance_counts=(1, 2),
                                batch_per_instance=8, seq_len=64)
        text = format_scaling(reports)
        assert "instances" in text and "scaling" in text
