"""Tests for the InferenceSession, hardware generator, and CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import InferenceSession
from repro.dataflow import ArrayType
from repro.model import ProteinBert, protein_bert_tiny
from repro.proteins import SequenceGenerator
from tests.oracles.generator import (
    crosscheck_against_table2,
    elaborate,
    elaboration_report,
)


class TestInferenceSession:
    @pytest.fixture(scope="class")
    def session(self):
        model = ProteinBert(protein_bert_tiny(max_position=128), seed=0)
        return InferenceSession(model)

    def test_embed_shapes(self, session):
        sequences = SequenceGenerator(seed=0).batch(3, 24)
        result = session.embed(sequences)
        assert result.embeddings.shape == (3, 64)
        assert result.estimated_latency_seconds > 0
        assert result.estimated_energy_joules > 0
        assert not result.functional

    def test_ragged_lengths_padded(self, session):
        result = session.embed(["MEYQ", "ACDEFGHIKLMNP"])
        assert result.embeddings.shape[0] == 2

    def test_empty_input_rejected(self, session):
        with pytest.raises(ValueError):
            session.embed([])

    def test_functional_matches_reference(self):
        model = ProteinBert(protein_bert_tiny(max_position=128), seed=1)
        reference = InferenceSession(model, functional=False)
        functional = InferenceSession(model, functional=True)
        sequences = SequenceGenerator(seed=2).batch(2, 16)
        a = reference.embed(sequences).embeddings
        b = functional.embed(sequences).embeddings
        assert np.corrcoef(a.ravel(), b.ravel())[0, 1] > 0.999

    def test_small_factory(self):
        session = InferenceSession.small()
        assert session.model.config.hidden_size == 256

    def test_energy_is_latency_times_power(self, session):
        result = session.embed(["MEYQ"])
        assert result.estimated_energy_joules == pytest.approx(
            result.estimated_latency_seconds * 31.1, rel=0.05)


class TestGenerator:
    def test_pe_counts(self):
        inventory = elaborate(16, ArrayType.M)
        assert inventory.macs == 256
        assert inventory.accumulator_bits == 256 * 32
        assert inventory.simd_alus == 16
        assert inventory.lut_bits == 0

    def test_lut_bits_per_alu(self):
        gelu = elaborate(16, ArrayType.G)
        exp = elaborate(16, ArrayType.E)
        assert gelu.lut_bits == 16 * 4096 * 8
        assert exp.lut_bits == 16 * 6144 * 8

    def test_rollup_tracks_table2(self):
        # Structural pre-synthesis estimates land within ~40% of the
        # synthesized anchors across every (size, type) point.
        for (size, letter), (p_ratio, a_ratio) in \
                crosscheck_against_table2().items():
            assert 0.55 < p_ratio < 1.45, (size, letter, p_ratio)
            assert 0.55 < a_ratio < 1.45, (size, letter, a_ratio)

    def test_power_grows_with_size(self):
        assert elaborate(64, ArrayType.M).power_mw() \
            > 10 * elaborate(16, ArrayType.M).power_mw()

    def test_report_renders(self):
        report = elaboration_report(16, ArrayType.E)
        assert "MAC datapaths" in report and "6144" not in report

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            elaborate(0, ArrayType.M)


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--batch", "8"])
        assert args.batch == 8

    def test_zoo_command(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "esm-1b" in out

    def test_embed_command(self, capsys):
        assert main(["embed", "MEYQKLVIV"]) == 0
        out = capsys.readouterr().out
        assert "embedded 1 sequences" in out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--batch", "8", "--seq-len", "64"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_unknown_hardware_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--hardware", "nope"])

    def test_no_args_prints_overview(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "subcommands:" in out
        for name in ("simulate", "trace", "reliability", "zoo"):
            assert name in out

    def test_workers_help_documents_env_default(self, capsys):
        for command in ("experiments", "dse", "reliability"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "REPRO_SWEEP_WORKERS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["experiments", "--workers", "0"],
        ["dse", "--workers", "-2"],
        ["dse", "--limit", "0"],
        ["reliability", "--sweep", "--workers", "0"],
        ["fleet", "--scenario", "all", "--workers", "0"],
        ["dse", "--budget", "0"],
        ["dse", "--budget", "-5"],
        ["trace", "--ascii", "--width", "0"],
        ["trace", "--sequences", "0"],
        ["trace", "--workload", "serving", "--sequences", "-3"],
        ["fleet", "--batch", "0"],
        ["fleet", "--racks", "0"],
        ["fleet", "--hosts-per-rack", "0"],
        ["fleet", "--instances-per-host", "0"],
        ["fleet", "--seq-len", "0"],
        ["fleet", "--reference-batch", "0"],
        ["reliability", "--batch", "0"],
        ["reliability", "--instances", "0"],
        ["simulate", "--batch", "0"],
        ["simulate", "--seq-len", "0"],
        ["simulate", "--threads", "0"],
    ])
    def test_nonpositive_counts_rejected(self, argv):
        flag, value = argv[-2:]
        with pytest.raises(SystemExit,
                           match=f"^{flag} must be at least 1, got {value}$"):
            main(argv)

    @pytest.mark.parametrize("argv, message", [
        (["fleet", "--min-capacity", "1.5"],
         r"--min-capacity must be in \[0, 1\], got 1.5"),
        (["fleet", "--link-transient-rate", "1.5"],
         r"--link-transient-rate must be in \[0, 1\], got 1.5"),
        (["reliability", "--fault-rate", "1.5"],
         r"--fault-rate must be in \[0, 1\], got 1.5"),
        (["reliability", "--fault-rate", "-0.1"],
         r"--fault-rate must be in \[0, 1\], got -0.1"),
        (["fleet", "--breaker-failures", "-1"],
         "--breaker-failures must be at least 0, got -1"),
        (["reliability", "--batch", "3", "--instances", "4"],
         r"--batch must be at least --instances \(4\), got 3"),
        (["fleet", "--scenario", "nope"],
         "unknown scenario 'nope'; choose from: none, all, "
         "rack_power_loss, link_flap_storm, slow_node, rolling_restart"),
        (["simulate", "--seq-len", "5000"],
         r"--seq-len must be at most 2048 \(the model's max_position\), "
         "got 5000"),
        (["compare", "--seq-len", "5000"],
         r"--seq-len must be at most 2048 \(the model's max_position\), "
         "got 5000"),
        (["dse", "--seq-len", "5000"],
         r"--seq-len must be at most 2048 \(the model's max_position\), "
         "got 5000"),
        (["trace", "--seq-len", "5000"],
         r"--seq-len must be at most 2048 \(the model's max_position\), "
         "got 5000"),
        (["fleet", "--seq-len", "5000"],
         r"--seq-len must be at most 2048 \(the model's max_position\), "
         "got 5000"),
        (["fleet", "--tiny", "--seq-len", "300"],
         r"--seq-len must be at most 256 \(the model's max_position\), "
         "got 300"),
        (["reliability", "--seq-len", "5000"],
         r"--seq-len must be at most 2048 \(the model's max_position\), "
         "got 5000"),
        (["binding", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["reliability", "--seed", "-1"],
         "--seed must be at least 0, got -1"),
        (["trace", "--workload", "serving", "--seed", "-1"],
         "--seed must be at least 0, got -1"),
        (["embed", "MEY@@"], "not a protein sequence: 'MEY@@'"),
        (["embed", ""], "not a protein sequence: ''"),
        (["embed", "A" * 600],
         "a sequence of 600 residues encodes to 602 tokens, more than "
         "the model's max_position 512"),
    ])
    def test_out_of_range_input_rejected(self, argv, message):
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main(argv)

    @pytest.mark.parametrize("argv", [
        ["fleet", "--list", "--seq-len", "3000"],
        ["fleet", "--tiny", "--seed", "-1", "--batch", "16"],
        ["trace", "--workload", "schedule", "--seed", "-1", "--batch", "2",
         "--seq-len", "64"],
        ["trace", "--workload", "functional", "--seq-len", "5000"],
    ])
    def test_value_the_path_does_not_read_accepted(self, argv, tmp_path):
        # The --seq-len and --seed limits hold only where the value
        # reaches the encoder or numpy's generator.
        if argv[0] == "trace":
            argv = argv + ["--observe", str(tmp_path)]
        assert main(argv) == 0

    def test_reliability_outage_fleet_line_pinned(self, capsys):
        # At fault rate 0.9 most of the batch is shed.  The run finishes
        # early, so nominal over degraded makespan alone reads 1.0; the
        # availability counts only the delivered share of the batch.
        # No re-sharded work completes (every instance dies), so the
        # recovery runs from the first failure to the backlog's shed.
        assert main(["reliability", "--fault-rate", "0.9",
                     "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "4-instance system @ instance-failure rate 0.9:"
        assert lines[3] == (
            "  goodput=37277.2 inf/s availability=0.4552 "
            "completed=14.6/32 shed=17.4 reshards=4 recovery=0.395 ms "
            "failures=4 energy=0.02 J")

    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_trace_command_emits_valid_json(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_chrome_trace

        assert main([
            "trace", "--workload", "schedule", "--batch", "2",
            "--seq-len", "64", "--observe", str(tmp_path),
        ]) == 0
        data = json.loads((tmp_path / "trace.json").read_text())
        counts = validate_chrome_trace(data)
        assert counts["spans"] > 0
        assert (tmp_path / "metrics.jsonl").exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "metrics.jsonl", "trace.json"]
        assert "trace" in capsys.readouterr().out


#: A small chaos run: the tiny model on 2 racks x 2 hosts x 2 instances.
FLEET_ARGV = ["fleet", "--scenario", "rack_power_loss", "--tiny",
              "--batch", "64", "--instances-per-host", "2"]


class TestFleetCli:
    @pytest.fixture(scope="class")
    def observed(self, tmp_path_factory):
        """Stdout of the run with and without ``--observe``, plus DIR."""
        import contextlib
        import io

        directory = tmp_path_factory.mktemp("fleet") / "observe"
        outputs = []
        for extra in ([], ["--observe", str(directory)]):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(FLEET_ARGV + extra) == 0
            outputs.append(buffer.getvalue().splitlines())
        return outputs[0], outputs[1], directory

    def test_observe_writes_all_four_files(self, observed):
        import json

        from repro.telemetry import validate_chrome_trace

        _plain, lines, directory = observed
        names = ("trace.json", "metrics.jsonl", "dashboard.txt",
                 "alerts.txt")
        assert sorted(path.name for path in directory.iterdir()) == \
            sorted(names)
        counts = validate_chrome_trace(
            json.loads((directory / "trace.json").read_text()))
        assert counts["spans"] > 0 and counts["counters"] > 0
        rows = [json.loads(line) for line in
                (directory / "metrics.jsonl").read_text().splitlines()]
        assert rows and all("name" in row for row in rows)
        assert (directory / "dashboard.txt").read_text().strip()
        assert (directory / "alerts.txt").read_text().strip()
        for name in names:
            assert sum(str(directory / name) in line for line in lines) == 1

    def test_report_is_unchanged_by_observe(self, observed):
        plain, lines, _directory = observed
        assert lines[:len(plain)] == plain
        assert len(lines) == len(plain) + 4

    @pytest.mark.parametrize("extra", [["--scenario", "all"], ["--list"]],
                             ids=["scenario-all", "list"])
    def test_observe_needs_one_scenario_run(self, tmp_path, extra):
        with pytest.raises(SystemExit) as exit_info:
            main(FLEET_ARGV + extra + ["--observe", str(tmp_path / "d")])
        text = str(exit_info.value.code)
        assert text.startswith("--observe") and "\n" not in text
        assert not (tmp_path / "d").exists()
