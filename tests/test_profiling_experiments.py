"""Tests for the profiling module and the per-figure experiment modules."""

import pytest

from repro.experiments import (
    binding_study,
    figure01,
    figure04,
    figure08,
    figure13_14,
    figure16,
    figure18,
    figure19,
    figure20,
    table02,
    table03,
    table04,
)
from repro.model import protein_bert_base
from repro.profiling import (
    CATEGORY_ORDER,
    format_breakdown,
    matmul_share_bounds,
    profile_breakdown,
)

CONFIG = protein_bert_base()
SHORT_LENGTHS = (64, 256, 1024)


class TestFigure3Profiling:
    @pytest.fixture(scope="class")
    def rows(self):
        return profile_breakdown(config=CONFIG, lengths=SHORT_LENGTHS)

    def test_shares_sum_to_one(self, rows):
        for row in rows:
            assert sum(v for _, v in row.shares) == pytest.approx(1.0)

    def test_matmul_share_in_paper_band(self, rows):
        low, high = matmul_share_bounds(rows)
        # Paper: matrix multiplies are 35%-52% of runtime at all lengths.
        assert 0.30 <= low <= high <= 0.60

    def test_unbatched_matmul_share_decreases_with_length(self, rows):
        shares = [row.share("Matrix Multiply") for row in rows]
        assert shares[0] > shares[-1]

    def test_softmax_share_increases_with_length(self, rows):
        shares = [row.share("Softmax") for row in rows]
        assert shares[-1] > shares[0]

    def test_matrix_div_share_increases_with_length(self, rows):
        shares = [row.share("Matrix Div") for row in rows]
        assert shares[-1] > shares[0]

    def test_categories_match_figure3_legend(self, rows):
        assert CATEGORY_ORDER == ("Matrix Multiply", "Batched Mat Mul",
                                  "Softmax", "GELU", "Matrix Add",
                                  "Matrix Div", "Other")

    def test_format_renders_all_rows(self, rows):
        text = format_breakdown(rows)
        assert text.count("\n") == len(rows)


class TestExperimentModules:
    def test_figure01_structure(self):
        result = figure01.run(lengths=(64, 512), prose_batch=16)
        assert set(result.systems) == {"A100", "TPUv2", "TPUv3", "ProSE"}
        # Every system's efficiency decreases with length.
        for system in result.systems:
            assert result.efficiency(system, 64) \
                > result.efficiency(system, 512)
        assert "ProSE" in figure01.format_result(result)

    def test_figure01_prose_wins_at_512(self):
        result = figure01.run(lengths=(512,), prose_batch=32)
        prose = result.efficiency("ProSE", 512)
        for other in ("A100", "TPUv2", "TPUv3"):
            assert prose > 10 * result.efficiency(other, 512)

    def test_figure04_ratio_grows(self):
        result = figure04.run(lengths=(128, 1024), batch=32)
        assert result.ratio(1024) > result.ratio(128)
        assert "ratio" in figure04.format_result(result)

    def test_figure08_knee(self):
        result = figure08.run(thread_counts=(1, 4, 32, 128), batch=128,
                              seq_len=256)
        by_threads = {p.threads: p.throughput for p in result.points}
        assert by_threads[32] / by_threads[1] > 8
        # Throughput declines (or flattens) past the knee.
        assert by_threads[128] < by_threads[32] * 1.1
        assert "best thread count" in figure08.format_result(result)

    def test_figure13_14_reports(self):
        gelu_report, exp_report = figure13_14.run()
        assert gelu_report.table_bytes == 4096
        assert exp_report.table_bytes == 6144
        assert gelu_report.in_window_max_error < 0.05
        assert exp_report.above_window_max_error == 0.0
        assert "GELU" in figure13_14.format_result((gelu_report,
                                                    exp_report))

    def test_figure16_small_sweep(self):
        result = figure16.run(batch=8, seq_len=128, limit=10)
        assert len(result.points) == 10
        assert "BestPerf" in figure16.format_result(result)

    def test_figure18_subset(self):
        from repro.arch import best_perf, homogeneous, nvlink, infinite_link
        result = figure18.run(configs=(best_perf(), homogeneous()),
                              links=(nvlink(2, 0.9), infinite_link()),
                              batch=32, baselines=("A100",))
        # Heterogeneous beats homogeneous at matched links, including
        # infinite bandwidth (the paper's claim).
        for link in (nvlink(2, 0.9).name, "Infinite"):
            assert (result.speedup("BestPerf", link, "A100")
                    > result.speedup("Homogeneous", link, "A100"))
        assert "speedup vs A100" in figure18.format_result(result)

    def test_figure19_subset(self):
        from repro.arch import best_perf, nvlink
        result = figure19.run(configs=(best_perf(),),
                              links=(nvlink(2, 0.9),), batch=32,
                              baselines=("A100", "TPUv3"))
        assert result.gain("BestPerf", nvlink(2, 0.9).name, "TPUv3") \
            > result.gain("BestPerf", nvlink(2, 0.9).name, "A100")

    def test_figure20_saturation(self):
        from repro.arch import best_perf
        result = figure20.run(configs=(best_perf(),),
                              bandwidths_gbps=(90, 270, 630), batch=32)
        curve = result.curve("BestPerf")
        assert curve[-1].throughput >= curve[0].throughput
        assert "saturates" in figure20.format_result(result)

    def test_table02_rows(self):
        rows = table02.run()
        assert len(rows) == 10
        assert "16x16" in table02.format_result(rows)

    def test_table03_counts(self):
        result = table03.run()
        assert result.num_configs == 232
        assert "238" in table03.format_result(result)

    def test_table04_rows(self):
        rows = table04.run()
        assert [r.name for r in rows][:3] == ["BestPerf", "MostEfficient",
                                              "Homogeneous"]
        # Modelled power within 10% of the paper's published numbers for
        # the 16K-PE designs.
        for row in rows[:3]:
            assert row.power_mw == pytest.approx(row.paper_power_mw,
                                                 rel=0.10)
        assert "paper mW" in table04.format_result(rows)

    def test_binding_study_formatting(self):
        from repro.binding import BindingStudyResult
        result = BindingStudyResult(rank_correlation=0.51,
                                    pearson_correlation=0.5,
                                    train_rank_correlation=0.6,
                                    num_train=39, num_test=35)
        text = binding_study.format_result(result)
        assert "0.5161" in text and "39" in text
