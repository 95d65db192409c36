"""Checks of the end-to-end benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest perf -q``.
The workloads run at reduced size: one block each, and one PE budget for
``dse_sweep``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from probe import Probe
from workloads import (
    WORKLOADS,
    DseSweep,
    Embed,
    Observed,
    PaperPoint,
    no_layer,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALLEST_BUDGET = 8192


@pytest.fixture(scope="module")
def golden():
    return run.load_golden()


def small(name, seed, golden):
    """A set-up workload at reduced size."""
    if name == DseSweep.name:
        workload = DseSweep(seed, golden, budgets=(SMALLEST_BUDGET,))
    else:
        workload = WORKLOADS[name](seed, golden)
    workload.setup()
    workload.traced_blocks = 1
    return workload


@pytest.fixture(scope="module")
def workloads(golden):
    return {name: small(name, 1, golden) for name in WORKLOADS}


def names(entries):
    return [entry["name"] for entry in entries]


def test_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(names(SPEC["workloads"]))
    tally = run.Tally()
    tally.timings.append((0.5, 1.0))
    measured = run.end_to_end(PaperPoint(1, {}), tally, 1.0, 1.0)
    assert sorted(measured) == sorted(names(SPEC["end_to_end"]))
    assert sorted(run.per_layer(Probe(), 1.0)) == sorted(
        names(SPEC["per_layer"]))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct(name, workloads):
    tally, wall = run.timed_phase(workloads[name], seconds=0)
    assert tally.failed == 0
    assert tally.attempted == len(workloads[name].block(0))
    assert tally.items > 0 and wall > 0
    assert min(run.latencies_ms(workloads[name], tally)) > 0


def perturbed(golden):
    changed = copy.deepcopy(golden)
    for record in changed["schedule"].values():
        record["makespan_seconds"] *= 1.0 + 1e-12
    for record in changed["dse"].values():
        record["points"][0][1] *= 1.0 + 1e-12
    for record in changed["chaos"].values():
        record["alerts"] += 1
    return changed


@pytest.mark.parametrize("name", [PaperPoint.name, DseSweep.name,
                                  Observed.name])
def test_perturbed_golden_fails_ops(name, golden):
    workload = small(name, 1, perturbed(golden))
    tally, _ = run.timed_phase(workload, seconds=0)
    assert tally.failed > 0


def op_list(workload, blocks=3):
    return [(op.label, op.items) for index in range(blocks)
            for op in workload.block(index)]


@pytest.mark.parametrize("name", [PaperPoint.name, Observed.name,
                                  Embed.name])
def test_seed_sets_the_op_list(name, golden, workloads):
    same = small(name, 1, golden)
    other = small(name, 2, golden)
    assert op_list(same) == op_list(workloads[name])
    assert op_list(other) != op_list(workloads[name])


def test_dse_seed_only_orders_the_passes(golden):
    one, two = DseSweep(1, golden), DseSweep(2, golden)
    assert op_list(one, 1) != op_list(two, 1)
    assert sorted(op_list(one, 1)) == sorted(op_list(two, 1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_tiles_each_op(name, workloads):
    tally, probe, untraced = run.traced_phase(workloads[name])
    assert tally.failed == 0 and untraced > 0
    tiling = probe.op_tiling()
    assert len(tiling) == tally.attempted // 2
    for label, seconds, residual in tiling:
        assert residual <= 0.05 * seconds, label
    values = run.per_layer(probe, untraced)
    layers = sum(value for key, value in values.items()
                 if key.endswith(".self_ms") or key.endswith(".overhead_ms"))
    assert layers + values["bench.residual_ms"] == pytest.approx(
        values["bench.op_ms"], rel=1e-9)


def test_cli_prints_the_declared_metrics():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perf" / "run.py"), "--workload",
             PaperPoint.name, "--seed", "3", "--seconds", "0", "--trace",
             str(trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=300, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names(SPEC[section])
        for entry in SPEC[section]:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", PaperPoint.name,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def write_runs(directory, values):
    directory.mkdir()
    for seed, value in enumerate(values, start=1):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"throughput": {"value": value,
                                             "unit": "items/s"}}}
        (directory / f"run-{seed}.txt").write_text(
            f"perf: workload=embed seed={seed} seconds=10 trace=0\n"
            + json.dumps(result) + "\n")


@pytest.mark.parametrize("change, verdict", [
    ([100.0, 101.0, 99.5, 100.5, 100.2], "no change"),
    ([70.0, 71.0, 69.0, 70.5, 70.2], "regression"),
    ([120.0, 121.0, 119.0, 120.5, 120.2], "improvement"),
])
def test_compare_verdicts(tmp_path, change, verdict):
    write_runs(tmp_path / "base", [100.0, 100.4, 99.8, 100.1, 99.9])
    write_runs(tmp_path / "change", change)
    lines, failing = compare.compare(tmp_path / "base", tmp_path / "change")
    assert lines[1].endswith(verdict)
    assert failing == (verdict == "regression")


def test_compare_wide_spread_is_unresolved(tmp_path):
    write_runs(tmp_path / "base", [100.0, 130.0, 80.0, 115.0, 90.0])
    write_runs(tmp_path / "change", [100.0, 129.0, 81.0, 114.0, 91.0])
    lines, failing = compare.compare(tmp_path / "base", tmp_path / "change")
    assert lines[1].endswith("unresolved") and failing


def test_embed_check_tells_sequences_apart(workloads):
    op = workloads[Embed.name].block(0)[0]
    reference, pooled, macs, tiles = op.run(no_layer)
    assert op.check((reference, pooled, macs, tiles)) is None
    assert op.check((reference, pooled[::-1], macs, tiles)) is not None
