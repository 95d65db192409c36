"""The experiments report, pinned byte for byte, plus each artifact's claims.

Every block of ``repro.experiments.runner`` is run once per session
(``result`` caches it) and checked two ways:

* its formatted text must equal ``experiments_report.json`` exactly, so a
  refactor either reproduces every reported number or regenerates the
  fixture and says why the number moved;
* the paper's *shape* claims (who wins, by roughly what factor, where
  crossovers fall) are asserted on the structured result, one named test
  per figure or table.

The four slowest blocks (Section 2.2, Figures 16 and 17, Extensions) are
marked ``slow`` and deselected by default; run them with
``pytest -m slow tests/test_experiments_report.py``.  Regenerate the
fixture, only when a reported number is meant to move, with::

    PYTHONPATH=src python tests/test_experiments_report.py
"""

from __future__ import annotations

import functools
import json
import os

import pytest

from repro.arch import nvlink
from repro.experiments.runner import EXPERIMENTS
from repro.physical import TABLE2_ROWS
from repro.profiling import matmul_share_bounds

FIXTURE = os.path.join(os.path.dirname(__file__), "experiments_report.json")

#: Runner id -> (run callable, format callable).
BLOCKS = {exp_id: (run_fn, format_fn)
          for exp_id, _title, run_fn, format_fn in EXPERIMENTS}

#: Blocks that take seconds each; their pins and claims run under -m slow.
SLOW = ("Section 2.2", "Figure 17", "Extensions", "Figure 16")

slow = pytest.mark.slow


@functools.lru_cache(maxsize=None)
def result(exp_id: str):
    """The block's structured result, computed once per session."""
    return BLOCKS[exp_id][0]()


def report(exp_id: str) -> str:
    return BLOCKS[exp_id][1](result(exp_id))


@pytest.fixture(scope="module")
def pins():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_block_is_pinned(pins):
    assert sorted(pins) == sorted(BLOCKS)


@pytest.mark.parametrize("exp_id", [
    pytest.param(exp_id, marks=[slow] if exp_id in SLOW else [])
    for exp_id in BLOCKS])
def test_block_text_pinned(pins, exp_id):
    assert report(exp_id) == pins[exp_id], f"{exp_id} report moved"


def test_figure01_efficiency_curves():
    figure = result("Figure 1")

    # Shape claims: every platform's efficiency decreases with length.
    lengths = sorted({point.seq_len for point in figure.points})
    for system in figure.systems:
        assert figure.efficiency(system, lengths[0]) \
            > figure.efficiency(system, lengths[-1])

    # ProSE holds roughly an order of magnitude (or more) over every
    # commodity platform at short, human-language lengths...
    for other in ("A100", "TPUv2", "TPUv3"):
        assert figure.efficiency("ProSE", 32) \
            > 5 * figure.efficiency(other, 32)

    # ...and past ~512 tokens the commodity platforms fall below
    # 1 inference/s/W while ProSE stays usable.
    for other in ("A100", "TPUv2", "TPUv3"):
        assert figure.efficiency(other, 1024) < 1.0
    assert figure.efficiency("ProSE", 1024) > 1.0


def test_figure03_runtime_breakdown():
    rows = result("Figure 3")

    # Matrix multiplies (batched + unbatched) dominate but never take the
    # whole runtime.  The paper reports 35%-52%; our calibrated model
    # spans 33%-65% (the short-length end runs matmul-heavier than the
    # paper's measurement — see EXPERIMENTS.md), with the protein-scale
    # lengths (>=256 tokens) inside the published band.
    low, high = matmul_share_bounds(rows)
    assert 0.30 <= low and high <= 0.66
    protein_rows = [row for row in rows if row.seq_len >= 256]
    p_low, p_high = matmul_share_bounds(protein_rows)
    assert 0.30 <= p_low and p_high <= 0.55

    # The unbatched MatMul share decreases as length increases while
    # element-wise and special-function shares grow.
    first, last = rows[0], rows[-1]
    assert first.share("Matrix Multiply") > last.share("Matrix Multiply")
    assert last.share("Softmax") > first.share("Softmax")
    assert last.share("Matrix Div") > first.share("Matrix Div")


def test_figure04_heterogeneous_vs_homogeneous():
    figure = result("Figure 4")

    # Runtime grows superlinearly with length on both designs.
    for design in ("ProSE", "Homogeneous"):
        assert figure.runtime(design, 2048) \
            > 8 * figure.runtime(design, 256)

    # Little difference at short lengths...
    assert figure.ratio(32) < 1.5
    # ...but beyond ~300 tokens the homogeneous design falls well behind.
    assert figure.ratio(512) > 1.7
    assert figure.ratio(1024) > 2.0
    # And the divergence grows from the short-length regime.
    assert figure.ratio(1024) > figure.ratio(64)


def test_figure08_thread_sweep():
    figure = result("Figure 8")

    # Multithreading "significantly improves system throughput": near-
    # linear scaling while data-dependency bubbles dominate.
    by_threads = {p.threads: p.throughput for p in figure.points}
    assert by_threads[4] / by_threads[1] > 3.0
    assert by_threads[32] / by_threads[1] > 10.0

    # The paper chose 32 threads: past the knee extra threads add mutex
    # contention without filling more bubbles.
    assert by_threads[32] > 0.9 * max(by_threads.values())
    assert by_threads[128] < by_threads[64]

    # Contention overhead grows monotonically with the thread count.
    contention = [p.contention_seconds for p in figure.points]
    assert all(a <= b for a, b in zip(contention, contention[1:]))


def test_figure11_12_step_traces():
    matmul, muladd = result("Figures 11/12")

    # Figure 11: TPUv2 performs eight operations, ProSE four.
    assert matmul.tpu.num_steps == 8
    assert matmul.prose.num_steps == 4

    # Figure 12: the MulAdd traverses the TPU's global dataflow two-three
    # times; ProSE completes it in one local-dataflow trip.
    assert muladd.tpu.buffer_trips >= 5
    assert muladd.tpu.num_steps / muladd.prose.num_steps > 1.5

    # ProSE makes zero Unified-Buffer round trips by construction.
    assert matmul.prose.buffer_trips == 0
    assert muladd.prose.buffer_trips == 0


def test_figure13_14_lut_windows():
    gelu_report, exp_report = result("Figures 13/14")

    # Exact table sizes from the paper: 4 KB for GELU, 6 KB for Exp.
    assert gelu_report.table_bytes == 4096
    assert exp_report.table_bytes == 6144

    # Exact exponent windows: GELU [-4, 3], Exp [-6, 5].
    assert gelu_report.exponent_window == (-4, 3)
    assert exp_report.exponent_window == (-6, 5)

    # "These truncation policies do not affect the accuracy of the models
    # we study": all error sources stay small over the active ranges.
    assert gelu_report.in_window_max_error < 0.05
    assert gelu_report.below_window_max_error < 0.05
    assert exp_report.in_window_max_error < 0.05
    assert exp_report.above_window_max_error == 0.0   # softmax range


@slow
def test_figure16_design_space_exploration():
    # The full space is 232 configurations (paper: 238), all evaluated at
    # a reduced batch that preserves the ranking.
    figure = result("Figure 16")
    assert len(figure.points) == 232

    # The scatter is broad: worst configuration at least 1.5x the best.
    runtimes = [p.normalized_runtime for p in figure.points]
    assert max(runtimes) > 1.5 * min(runtimes)

    # BestPerf is the global runtime minimum by construction; it should
    # beat the A100 (normalized runtime < 1) by a wide margin.
    assert figure.best_perf.normalized_runtime < 0.5

    # The efficient Pareto picks give up little performance for their
    # power/area savings (the paper's BestPerf vs MostEfficient rows are
    # close in both).
    assert figure.most_power_efficient.normalized_runtime \
        < 1.5 * figure.best_perf.normalized_runtime


@slow
def test_figure17_resource_sweep():
    figure = result("Figure 17")
    by_budget = {p.pe_budget: p for p in figure.points}

    # Performance grows with hardware resources.
    assert by_budget[24576].best_perf_speedup \
        > by_budget[8192].best_perf_speedup

    # The balance point (perf x perf/W) lands at 16K or 20K PEs — the
    # paper's ProSE / ProSE+ design points.
    assert figure.most_balanced_budget in (16384, 20480)

    # Every budget's BestPerf beats one A100.
    for point in figure.points:
        assert point.best_perf_speedup > 1.0
        assert point.best_perf_efficiency_gain > 10.0


def test_figure18_speedup_grid():
    figure = result("Figure 18")
    nvlink2 = nvlink(2, 0.9).name

    # "The BestPerf and the MostEfficient designs achieve a speedup of
    # 3.9-4.7x over the A100 and 3.1-3.8x over TPUv3 with NVLink 2.0."
    for name in ("BestPerf", "MostEfficient"):
        assert 3.2 <= figure.speedup(name, nvlink2, "A100") <= 5.5
        assert 2.6 <= figure.speedup(name, nvlink2, "TPUv3") <= 4.6

    # "up to 6.9x speedup" over the A100 and "up to 5.5x" over TPUv3.
    speedups = {baseline: [cell.speedup for cell in figure.cells
                           if cell.baseline == baseline]
                for baseline in ("A100", "TPUv3")}
    assert 5.5 <= max(speedups["A100"]) <= 9.0
    assert 4.5 <= max(speedups["TPUv3"]) <= 7.5

    # The "+" designs demand faster links: NVLink 3.0 buys BestPerf+ a
    # real gain while BestPerf is already nearly saturated at NVLink 2.0.
    nvlink3 = nvlink(3, 0.9).name
    plus_gain = (figure.speedup("BestPerf+", nvlink3, "A100")
                 / figure.speedup("BestPerf+", nvlink2, "A100"))
    base_gain = (figure.speedup("BestPerf", nvlink3, "A100")
                 / figure.speedup("BestPerf", nvlink2, "A100"))
    assert plus_gain > 1.05
    assert plus_gain > base_gain

    # Homogeneous designs underperform heterogeneous ones at every link,
    # including infinite bandwidth.
    for link in (nvlink2, nvlink3, "Infinite"):
        assert figure.speedup("BestPerf", link, "A100") \
            > figure.speedup("Homogeneous", link, "A100")
        assert figure.speedup("BestPerf+", link, "A100") \
            > figure.speedup("Homogeneous+", link, "A100")


def test_figure19_efficiency_grid():
    figure = result("Figure 19")
    nvlink2 = nvlink(2, 0.9).name

    # One to two orders of magnitude over the commodity platforms: tens
    # of times the A100, a couple hundred times TPUv3.
    for name in ("BestPerf", "MostEfficient"):
        assert 30 <= figure.gain(name, nvlink2, "A100") <= 100
        assert 120 <= figure.gain(name, nvlink2, "TPUv3") <= 350

    # TPUv3 gains exceed A100 gains everywhere (the Unified Buffer and
    # board power make the TPU far less efficient).
    for cell in figure.cells:
        if cell.baseline == "A100":
            counterpart = figure.gain(cell.config_name, cell.link_name,
                                      "TPUv3")
            assert counterpart > cell.efficiency_gain

    # Heterogeneous designs are more efficient than homogeneous ones at
    # matched links.
    for link in (nvlink2, "Infinite"):
        assert figure.gain("BestPerf", link, "A100") \
            > figure.gain("Homogeneous", link, "A100")


def test_figure20_roofline():
    figure = result("Figure 20")

    for name in ("BestPerf", "BestPerf+"):
        curve = sorted(figure.curve(name), key=lambda p: p.bandwidth_gbps)
        throughputs = [p.throughput for p in curve]
        # Monotone non-decreasing with bandwidth...
        assert all(a <= b * 1.001 for a, b in zip(throughputs,
                                                  throughputs[1:]))
        # ...and saturating: the last doubling buys little.
        assert throughputs[-1] < 1.15 * throughputs[-3]

    # BestPerf+ has more compute and saturates at a higher bandwidth than
    # BestPerf (the paper puts BestPerf+'s knee near 360 GB/s).
    assert figure.saturation_bandwidth("BestPerf+") \
        >= figure.saturation_bandwidth("BestPerf")
    assert figure.saturation_bandwidth("BestPerf+") >= 270

    # Dataflow 3 (the softmax round trip) sits below BestPerf's machine
    # balance, so it is link-bound; Dataflows 1 and 2 are compute-bound.
    rows = figure.intensity.splitlines()[2:]
    assert {row.split()[0]: row.split()[-1] for row in rows} == {
        "dataflow1": "compute", "dataflow2": "compute",
        "dataflow3": "link"}

    # With ample bandwidth the bigger design is strictly faster.
    plus_curve = {p.bandwidth_gbps: p.throughput
                  for p in figure.curve("BestPerf+")}
    base_curve = {p.bandwidth_gbps: p.throughput
                  for p in figure.curve("BestPerf")}
    assert plus_curve[630] > base_curve[630]


def test_table02_physical_characteristics():
    rows = result("Table 2")

    # All ten published rows reproduce verbatim from the anchored model.
    assert len(rows) == 10
    for row in rows:
        published = TABLE2_ROWS[(row.size, row.gelu, row.exp)]
        assert row.frequency_mhz == published[0]
        assert row.power_mw == published[1]

    # Structural claims: LUT-equipped arrays close timing near 858-925
    # MHz (setting the 800 MHz SIMD clock); plain arrays exceed 1.6 GHz.
    for row in rows:
        if row.gelu or row.exp:
            assert 850 <= row.frequency_mhz <= 930
        else:
            assert row.frequency_mhz >= 1626

    # Power grows superlinearly in array size (n^2 PEs dominate).
    base = {r.size: r.power_mw for r in rows if not r.gelu and not r.exp}
    assert base[64] > 3 * base[32] > 9 * base[16] * 0.9

    # Every array is a tiny fraction of one A100 (<1% power, <0.4% area).
    for row in rows:
        assert row.percent_a100_power < 1.0
        assert row.percent_a100_area < 0.4


def test_table03_space_definition():
    table = result("Table 3")
    assert table.m_size == 64 and table.m_max_count == 3
    assert dict(table.ge_max_counts) == {16: 31, 32: 15}
    assert table.pe_budget == 16384
    # Paper explored 238 configurations; our lane-sweep enumeration: 232.
    assert 200 <= table.num_configs <= 280


def test_table04_select_configurations():
    by_name = {row.name: row for row in result("Table 4")}

    # PE budgets: 16K for the base designs, 20K for the "+" designs.
    for name in ("BestPerf", "MostEfficient", "Homogeneous"):
        assert by_name[name].total_pes == 16384
    for name in ("BestPerf+", "MostEfficient+", "Homogeneous+"):
        assert by_name[name].total_pes == 20480

    # Modeled power tracks the published column closely for the 16K-PE
    # designs (the homogeneous row reproduces exactly).
    assert by_name["Homogeneous"].power_mw \
        == pytest.approx(by_name["Homogeneous"].paper_power_mw, rel=0.001)
    for name in ("BestPerf", "MostEfficient"):
        assert by_name[name].power_mw \
            == pytest.approx(by_name[name].paper_power_mw, rel=0.10)

    # Area likewise (the paper's 48.5 mm2 for the "+" heterogeneous rows
    # is inconsistent with its own Table 2; see EXPERIMENTS.md).
    for name in ("BestPerf", "MostEfficient", "Homogeneous",
                 "Homogeneous+"):
        assert by_name[name].area_mm2 \
            == pytest.approx(by_name[name].paper_area_mm2, rel=0.02)


@slow
def test_section22_binding_study():
    study = result("Section 2.2")

    # Paper's split: 39 Herceptin Fab variants train, 35 BH1 test.
    assert study.num_train == 39
    assert study.num_test == 35

    # "near or above 0.5" rank correlation (paper: 0.5161).  Our synthetic
    # substitute lands in the same band.
    assert study.rank_correlation >= 0.40
    assert study.experimentally_valid

    # The model actually fits the training library too.
    assert study.train_rank_correlation > 0.4


def test_ablations_design_choices():
    buffer_points, chaining, window_points = result("Ablations")

    # Figure 11(d): the partial input buffer "boost[s] performance in a
    # limited bandwidth scenario" — large gains when starved.
    assert all(point.gain > 2.0 for point in buffer_points)

    # Left-rotation chaining both speeds execution and cuts link traffic
    # (the intermediates never leave the accumulators).
    assert chaining.speedup > 1.3
    assert chaining.traffic_saving > 0.3

    # The paper's GELU window [-4, 3] is the knee: max error < 0.05 at
    # 4 KB, and halving the window blows the error budget.
    by_window = {p.window: p for p in window_points}
    assert by_window[(-4, 3)].max_error < 0.05
    assert by_window[(-3, 2)].max_error > 0.05


@slow
def test_extensions_studies():
    zoo, seq2seq, tasks, footprints = result("Extensions")

    # Streaming design scales to ESM-1b with *constant* device storage.
    by_model = {point.model: point for point in zoo}
    assert by_model["esm-1b"].prose_storage_bytes \
        == by_model["tape-bert"].prose_storage_bytes
    # Throughput roughly inversely proportional to model size.
    assert by_model["tape-bert"].throughput \
        > 3 * by_model["esm-1b"].throughput

    # Encoder-decoder runs on the same three dataflows with a bounded
    # overhead (decoder adds roughly one encoder's worth of work).
    for point in seq2seq:
        assert 1.2 <= point.decoder_overhead <= 3.5

    # One shared extractor transfers to every registered downstream task.
    for task in tasks.values():
        assert task.rank_correlation > 0.4

    # Section 2.1: attention scores grow quadratically with length (16x
    # from 512 to 2048 tokens) while the other activations grow linearly,
    # so the largest batch an A100 holds shrinks by an order of magnitude.
    by_length = {footprint.seq_len: footprint for footprint in footprints}
    short, long = by_length[512], by_length[2048]
    assert long.quadratic_activation_bytes \
        == 16 * short.quadratic_activation_bytes
    assert long.linear_activation_bytes == 4 * short.linear_activation_bytes
    assert short.max_batch() > 10 * long.max_batch()


def test_numerics_accuracy_preserved():
    numerics = result("Numerics")

    # Hidden states through the full hardware datapath track the float
    # reference almost exactly.
    assert numerics.output_correlation > 0.999
    assert numerics.output_max_error < 0.2

    # The downstream scientific conclusion is unchanged: rank correlation
    # through the hardware datapath matches the float pipeline.
    assert abs(numerics.accelerated_rank_correlation
               - numerics.reference_rank_correlation) < 0.1
    assert numerics.accuracy_preserved


def test_headline_claims():
    headline = result("Headline")

    rows = {(row.operating_point, row.baseline): row
            for row in headline.rows}

    def speedup(point, baseline):
        return rows[point, baseline].speedup

    def gain(point, baseline):
        return rows[point, baseline].efficiency_gain

    # Up to 6.9x over one A100 (we land ~7.0x at the same point).
    assert 6.0 <= speedup("BestPerf+@NVLink3", "A100") <= 8.0
    # Up to 5.5x over TPUv3, 12.7x over TPUv2.
    assert 4.8 <= speedup("BestPerf+@NVLink3", "TPUv3") <= 6.5
    assert 11.0 <= speedup("BestPerf+@NVLink3", "TPUv2") <= 15.0
    # Tens of times the A100's perf/W, hundreds of times the TPUs'.
    assert gain("BestPerf@NVLink2", "A100") >= 40
    assert gain("BestPerf@NVLink2", "TPUv3") >= 150
    assert gain("BestPerf@NVLink2", "TPUv2") >= 220


def test_sensitivity_analysis():
    sensitivity = result("Sensitivity")

    # The headline conclusion — ProSE several times faster than one A100 —
    # survives every single-knob perturbation.
    low, high = sensitivity.global_range
    assert low > 2.5
    assert high < 8.0

    # Host throughput barely matters (the host is not the bottleneck at
    # the paper's operating point).
    by_knob = {}
    for point in sensitivity.points:
        by_knob.setdefault(point.knob, []).append(point.speedup_vs_a100)
    host = by_knob["host throughput"]
    assert max(host) / min(host) < 1.1

    # Lane partitioning is the most sensitive knob (the paper sweeps it
    # in the DSE for exactly this reason), but stays within ~1.6x.
    lanes = by_knob["lane partition"]
    assert max(lanes) / min(lanes) < 1.8

    # Batch size saturates once threads fill (>= 64 is flat).
    batch_points = {p.setting: p.speedup_vs_a100
                    for p in sensitivity.points if p.knob == "batch size"}
    assert abs(batch_points["128"] - batch_points["64"]) \
        < 0.1 * batch_points["64"]


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as out:
        json.dump({exp_id: report(exp_id) for exp_id in BLOCKS}, out,
                  indent=1, sort_keys=True, ensure_ascii=False)
        out.write("\n")
    print(f"wrote {FIXTURE}")
