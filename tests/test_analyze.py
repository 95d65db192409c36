"""Tests for the trace analytics engine and regression attribution.

Covers critical-path extraction (exact tiling of the end-to-end span,
idle-gap synthesis, determinism), utilization attribution (busy/blocked
accounting, concurrency histogram, the "bound by" verdict against the
scheduler's own bottleneck), trace rollups and run-to-run diffs, the
Chrome-trace round trip including the highlighted critical-path track,
and the ``analyze`` CLI over a trace written by ``trace``.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import best_perf
from repro.arch.config import table4_configs
from repro.cli import main
from repro.model import protein_bert_base
from repro.sched.orchestrator import Orchestrator
from repro.telemetry import (
    Tracer,
    analyze_trace,
    build_rollup,
    critical_path_spans,
    diff_rollups,
    format_critical_path,
    format_diff,
    format_utilization,
    load_trace,
    to_chrome_trace,
    tracer_from_chrome_trace,
    validate_chrome_trace,
    validate_rollup,
)
import repro.telemetry.analyze as analyze_module
from repro.telemetry.analyze import IDLE_HOP
from tests.oracles import analyze as oracle

#: One batched BERT-base inference on BestPerf, small enough to trace fast.
BATCH = 8
SEQ_LEN = 128
CONFIG = protein_bert_base()


@pytest.fixture(scope="module")
def schedule_run():
    """One traced nominal schedule plus its ScheduleResult."""
    tracer = Tracer()
    result = Orchestrator(best_perf()).run(
        CONFIG, batch=BATCH, seq_len=SEQ_LEN, tracer=tracer)
    return tracer, result


def _toy_tracer():
    """A small hand-built trace with a deliberate 1s idle gap."""
    tracer = Tracer()
    tracer.add_span("root", 0.0, 10.0, category="run", tid="top")
    tracer.add_span("a", 0.0, 4.0, category="exec", tid="r1")
    tracer.add_span("b", 5.0, 10.0, category="exec", tid="r2")
    return tracer


# -- critical path -------------------------------------------------------

class TestCriticalPath:
    def test_path_tiles_the_root_span_exactly(self, schedule_run):
        tracer, result = schedule_run
        path = analyze_trace(tracer).path
        assert path.root_name == "orchestrator.run"
        assert path.root_seconds == pytest.approx(
            result.makespan_seconds, abs=0.0)
        # The acceptance invariant: per-hop self times tile the
        # end-to-end span with no gaps and no overlaps.
        assert path.total_seconds == pytest.approx(path.root_seconds,
                                                   abs=1e-12)
        assert path.gap_seconds == 0.0

    def test_hops_are_chronological_and_contiguous(self, schedule_run):
        tracer, _result = schedule_run
        path = analyze_trace(tracer).path
        cursor = 0.0
        for hop in path.hops:
            assert hop.self_seconds > 0.0
            cursor += hop.self_seconds
        assert cursor == pytest.approx(path.root_seconds, abs=1e-12)
        ends = [hop.end for hop in path.hops]
        assert ends == sorted(ends)

    def test_gap_synthesis_on_a_sparse_trace(self):
        path = analyze_trace(_toy_tracer()).path
        names = [hop.name for hop in path.hops]
        assert names == ["a", IDLE_HOP, "b"]
        assert path.gap_seconds == pytest.approx(1.0)
        assert path.total_seconds == pytest.approx(10.0)

    def test_extraction_is_deterministic_per_seed(self):
        def analysis_json():
            tracer = Tracer()
            Orchestrator(best_perf()).run(CONFIG, batch=BATCH,
                                          seq_len=SEQ_LEN, tracer=tracer)
            return analyze_trace(tracer).to_json()

        assert analysis_json() == analysis_json()

    def test_named_and_missing_roots(self, schedule_run):
        tracer, _result = schedule_run
        named = analyze_trace(tracer, root="orchestrator.run").path
        assert named.root_name == "orchestrator.run"
        with pytest.raises(ValueError, match="no sim-time span named"):
            analyze_trace(tracer, root="nope")
        with pytest.raises(ValueError, match="no finished sim-time"):
            analyze_trace(Tracer())

    def test_blocker_starting_at_the_cursor_is_dropped(self):
        # "x" ends within the 1 ns slack after the cursor reaches 1.0 but
        # starts there too: it explains no time before 1.0.  The walk
        # used to take it as a zero-length hop forever.
        tracer = Tracer()
        tracer.add_span("root", 0.0, 3.0, category="run")
        tracer.add_span("y", 0.0, 1.0, category="exec", tid="r1")
        tracer.add_span("x", 1.0, 1.0 + 3e-10, category="exec", tid="r2")
        path = analyze_trace(tracer).path
        assert [hop.name for hop in path.hops] == ["y", "x", IDLE_HOP]
        assert [hop.self_seconds for hop in path.hops[:2]] == [
            1.0, pytest.approx(3e-10)]

    def test_hull_root_when_no_run_span_exists(self):
        tracer = Tracer()
        tracer.add_span("x", 1.0, 3.0, category="exec")
        path = analyze_trace(tracer).path
        assert path.root_name == "(trace)"
        assert (path.hops[0].start, path.hops[-1].end) == (1.0, 3.0)

    def test_one_analysis_reads_the_finished_spans_once(self, monkeypatch):
        # One read of the tracer's span columns and one sort of their
        # rows per analysis; no Span object is built along the way.
        tracer = Tracer()
        Orchestrator(best_perf()).run(CONFIG, batch=BATCH, seq_len=SEQ_LEN,
                                      tracer=tracer)
        reads, sorts = [], []
        sim_columns = Tracer.sim_columns

        def counting_read(self):
            reads.append(self)
            return sim_columns(self)

        class CountingTrace(analyze_module._Trace):
            def __init__(self, columns):
                sorts.append(columns)
                super().__init__(columns)

        def no_spans(self):
            raise AssertionError("the analysis built Span objects")

        monkeypatch.setattr(Tracer, "sim_columns", counting_read)
        monkeypatch.setattr(Tracer, "spans", property(no_spans))
        monkeypatch.setattr(analyze_module, "_Trace", CountingTrace)
        analyze_trace(tracer)
        assert reads == [tracer]
        assert len(sorts) == 1

    def test_formatting_mentions_hops_and_composition(self, schedule_run):
        tracer, _result = schedule_run
        text = format_critical_path(analyze_trace(tracer).path, top=5)
        assert "critical path of 'orchestrator.run'" in text
        assert "more hop(s)" in text
        assert "path composition:" in text


# -- parity with the per-row passes ------------------------------------

#: Times on a coarse grid (equal starts, spans crossing a root window),
#: pairs 0.4 ns apart, signed zeros, and arbitrary floats.
_TIMES = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.0 + 4e-10, 1.5, 2.0,
                          3.0]) | st.floats(-1.0, 4.0)
_LENGTHS = st.sampled_from([0.0, 3e-10, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)
_TRACKS = st.sampled_from([
    ("p0", "2x 64x64 M[0]"), ("p0", "channel:M"), ("p0", "host[0]"),
    ("p0", "thread00"), ("p0", "schedule"), ("p1", "1x 32x32 G[0]"),
    ("p1", "channel:G"), ("p1", "thread01"), ("p1", "schedule"),
    ("p1", "instance0")])
_SPAN_ARGS = st.fixed_dictionaries({}, optional={
    "ready": st.none() | st.booleans() | st.integers(-1, 3)
    | st.floats(-1.0, 4.0) | st.just("1.0"),
    "kind": st.sampled_from(["gemm", "", 3]),
    "resource": st.sampled_from(["host", "M"])})
_PHASE_ARGS = st.fixed_dictionaries({}, optional={
    "host_slots": st.integers(0, 4) | st.just("2"),
    "arrays_m": st.integers(0, 2), "arrays_g": st.integers(0, 3),
    "bottleneck": st.sampled_from(["array:M", "host", None])})
#: Scheduler phases: ``orchestrator.run`` spans with an inventory.
_PHASES = st.lists(st.tuples(
    _TIMES, _LENGTHS, st.sampled_from(["p0", "p1"]),
    st.fixed_dictionaries({"host_slots": st.integers(0, 4),
                           "arrays_m": st.integers(0, 2),
                           "arrays_g": st.integers(0, 3)})), max_size=3)


@st.composite
def _random_traces(draw):
    """A random tracer, the source to analyze (the tracer or its Chrome
    export) and a root name (or None)."""
    spans = draw(st.lists(st.tuples(
        st.sampled_from(["a", "b", "B", "orchestrator.run"]), _TIMES,
        _LENGTHS, _TRACKS,
        st.sampled_from(list(analyze_module.CATEGORY_CLASSES)
                        + ["run", "run", "fleet", "critical", "idle",
                           "span"])), min_size=1, max_size=40))
    spans += [("orchestrator.run", start, length, (pid, "schedule"), "run",
               args) for start, length, pid, args in draw(_PHASES)]
    bulk = draw(st.integers(0, len(spans)))
    tracer = Tracer()
    columns = ([], [], [], [], [], [], [])
    for index, (name, start, length, (pid, tid), category,
                *args) in enumerate(spans):
        args = args[0] if args else draw(
            _PHASE_ARGS if category == "run" else _SPAN_ARGS)
        if index < bulk:
            # A numeric ready may move to the ready column, leaving a
            # placeholder in its args, as the orchestrator records it.
            ready = args.get("ready")
            if (isinstance(ready, (int, float)) and not isinstance(
                    ready, bool) and draw(st.booleans())):
                args = dict(args, ready=None)
            else:
                ready = np.nan
            for column, value in zip(columns, (
                    name, start, start + length, tracer.track(pid, tid),
                    category, args, ready)):
                column.append(value)
        else:
            tracer.add_span(name, start, start + length, pid=pid, tid=tid,
                            category=category, **args)
    names, starts, ends, tracks, categories, args, ready = columns
    codes = np.arange(len(names))
    tracer.add_spans(names, categories, args, codes, codes, codes, starts,
                     ends, tracks, ready)
    source = to_chrome_trace(tracer) if draw(st.booleans()) else tracer
    root = draw(st.none() | st.sampled_from([span[0] for span in spans]))
    return source, root


#: Instants the stacked traces gather span ends at: a grid, and hops
#: start on it, so the walk reaches the instants one after another.
_INSTANTS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
#: A step well inside the 1 ns slack: a few stacked ends chain.
_SLACK_STEP = 3e-10


@st.composite
def _stacked_traces(draw):
    """A trace that is hard to walk.  At some instants, span ends stack
    down in slack steps while their starts rise, so each later start
    outranks the one above and the tie window chains down the stack to
    a span starting at the instant before.  Short spans start at or
    after an instant, to be dropped, and at the other instants they are
    all there is, so the walk idles after the drops."""
    tracer = Tracer()
    tracer.add_span("run", 0.0, 4.0, category="run", tid="schedule")

    def span(start, end):
        tracer.add_span(draw(st.sampled_from(["a", "b", "c"])), start, end,
                        tid=draw(st.sampled_from(["r0", "r1", "thread00"])),
                        category=draw(st.sampled_from(["exec", "task"])))

    instants = sorted(draw(st.lists(st.sampled_from(_INSTANTS), min_size=2,
                                    max_size=6, unique=True)))
    for index, instant in enumerate(instants):
        stacked = index == len(instants) - 1 or draw(st.booleans())
        if stacked:
            # The latest start, at the instant before, ends lowest.
            earlier = [0.0] + instants[:index]
            for step, start in enumerate(sorted(draw(st.lists(
                    st.sampled_from(earlier), min_size=4, max_size=8)))
                    + earlier[-1:]):
                span(start, instant - step * _SLACK_STEP)
        for step in draw(st.lists(st.integers(0, 3), min_size=not stacked,
                                  max_size=4)):
            start = instant + step * _SLACK_STEP
            span(start, start + draw(st.sampled_from(
                [1e-10, _SLACK_STEP, 8e-10])))
    return tracer


class TestOracleParity:
    """The columnar passes against the per-row passes they replaced
    (``tests/oracles/analyze.py``), byte for byte."""

    @given(_random_traces())
    @settings(max_examples=200, deadline=None)
    def test_analysis_and_rollup_match_the_oracle(self, case):
        source, root = case
        analysis = analyze_trace(source, root=root)
        expected = oracle.analyze(source, root=root)
        assert analysis.to_json() == expected.to_json()
        assert json.dumps(analysis.rollup, sort_keys=True) == json.dumps(
            expected.rollup, sort_keys=True)
        assert format_critical_path(analysis.path, top=2) == \
            format_critical_path(expected.path, top=2)

    @given(_stacked_traces())
    @settings(max_examples=200, deadline=None)
    def test_stacked_ends_and_dropped_blockers_match_the_oracle(
            self, tracer):
        analysis = analyze_trace(tracer)
        expected = oracle.analyze(tracer)
        assert analysis.to_json() == expected.to_json()
        assert json.dumps(analysis.rollup, sort_keys=True) == json.dumps(
            expected.rollup, sort_keys=True)

    def test_signed_zero_starts_match_the_oracle(self):
        # Both blockers start at the same cursor, -0.0 and 0.0.  The
        # idle hop before them ends where the hop taken starts, 0.0, not
        # at the first of the equal starts.
        tracer = Tracer()
        tracer.add_span("root", -1.0, 1.0, category="run")
        tracer.add_span("a", -0.0, 3e-10, category="exec", tid="r")
        tracer.add_span("a", 0.0, 3e-10, category="exec", tid="r")
        analysis = analyze_trace(tracer)
        assert analysis.to_json() == oracle.analyze(tracer).to_json()
        assert str(analysis.path.hops[0].end) == "0.0"

    def test_one_stack_under_many_cursors_matches_the_oracle(self):
        # 2,000 spans end together and 2,000 more start just after, so
        # every one of those cursors looks back over the whole stack.
        # Gathering the stack once per cursor would take about 100 MB.
        tracer = Tracer()
        tracer.add_span("run", 0.0, 10.0, category="run", tid="schedule")
        for index in range(2000):
            tracer.add_span("a", index / 400, 5.0, category="exec",
                            tid=f"r{index % 7}")
            tracer.add_span("b", 5.0 + index * 1e-13, 6.0 + index / 1000,
                            category="exec", tid=f"q{index % 5}")
        tracemalloc.start()
        try:
            analysis = analyze_trace(tracer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert analysis.to_json() == oracle.analyze(tracer).to_json()

    def test_many_idle_hops_match_the_oracle(self):
        # Spans apart from each other, some ending inside the next: the
        # walk idles back between most of them.
        tracer = Tracer()
        tracer.add_span("run", 0.0, 400.0, category="run", tid="schedule")
        for index in range(200):
            tracer.add_span("a", 2.0 * index + 0.5,
                            2.0 * index + 1.0 + index % 4 * 0.5,
                            category="exec", tid=f"r{index % 3}")
        analysis = analyze_trace(tracer)
        assert sum(hop.name == IDLE_HOP for hop in analysis.path.hops) > 100
        assert analysis.to_json() == oracle.analyze(tracer).to_json()

    def test_signed_zero_sums_match_the_oracle(self):
        # A span ending at -0.0 after starting at 0.0 lasts -0.0 s, and a
        # task starting at -0.0 and ready at 0 is blocked -0.0 s: a sum
        # of such terms alone must still come out 0.0, as a loop from
        # 0.0 adds it.
        tracer = Tracer()
        tracer.add_span("root", -1.0, 1.0, category="run")
        tracer.add_span("a", 0.0, -0.0, category="exec", tid="r")
        tracer.add_span("t", -0.0, 0.5, category="task", tid="thread00",
                        ready=0)
        analysis = analyze_trace(tracer)
        assert analysis.to_json() == oracle.analyze(tracer).to_json()
        assert analysis.rollup == oracle.analyze(tracer).rollup
        [span] = [entry for entry in analysis.rollup["spans"]
                  if entry["name"] == "a"]
        [track] = [track for track in analysis.utilization.tracks
                   if track.tid == "thread00"]
        assert str(span["total_seconds"]) == "0.0"
        assert str(track.blocked_seconds) == "0.0"

    def test_schedule_trace_matches_the_oracle(self, schedule_run):
        tracer, _result = schedule_run
        assert analyze_trace(tracer).to_json() == \
            oracle.analyze(tracer).to_json()

    @pytest.mark.parametrize("config", table4_configs(),
                             ids=[config.name for config in table4_configs()])
    def test_table4_long_walks_match_the_oracle(self, config):
        # The benchmark's batch-32 seq-512 explain shape: 10,817 spans
        # and walks of 601 to 1,495 hops.
        tracer = Tracer()
        Orchestrator(config).run(CONFIG, batch=32, seq_len=512, tracer=tracer)
        analysis, expected = analyze_trace(tracer), oracle.analyze(tracer)
        assert len(analysis.path.hops) > 600
        assert analysis.to_json() == expected.to_json()
        assert json.dumps(analysis.rollup, sort_keys=True) == json.dumps(
            expected.rollup, sort_keys=True)


# -- utilization & verdicts ---------------------------------------------

class TestUtilization:
    def test_verdict_matches_schedule_result_bottleneck(
            self, schedule_run):
        tracer, result = schedule_run
        report = analyze_trace(tracer).utilization
        assert len(report.phases) == 1
        phase = report.phases[0]
        assert phase.bound_by == result.bottleneck
        assert phase.recorded == result.bottleneck
        assert phase.agrees is True

    def test_verdict_matches_across_table4_configs(self):
        from repro.arch.config import table4_configs

        for config in table4_configs()[:3]:
            tracer = Tracer()
            result = Orchestrator(config).run(
                CONFIG, batch=BATCH, seq_len=SEQ_LEN,
                tracer=tracer)
            report = analyze_trace(tracer).utilization
            assert report.phases[0].bound_by == result.bottleneck, \
                config.name

    def test_track_accounting_sums(self, schedule_run):
        tracer, _result = schedule_run
        report = analyze_trace(tracer).utilization
        for track in report.tracks:
            assert 0.0 <= track.busy_fraction <= 1.0 + 1e-9
            assert track.idle_seconds >= 0.0
            total = (track.busy_seconds + track.blocked_seconds
                     + track.idle_seconds)
            assert total <= track.horizon_seconds + 1e-9
        classes = {track.resource_class for track in report.tracks}
        assert {"array", "link", "host", "thread"} <= classes

    def test_concurrency_histogram_is_a_distribution(self, schedule_run):
        tracer, _result = schedule_run
        report = analyze_trace(tracer).utilization
        assert sum(report.concurrency.values()) == pytest.approx(1.0)
        assert all(share >= 0.0 for share in report.concurrency.values())
        assert report.mean_concurrency > 1.0  # arrays + links overlap

    def test_blocked_time_comes_from_ready_args(self):
        tracer = Tracer()
        tracer.add_span("root", 0.0, 4.0, category="run")
        tracer.add_span("t", 2.0, 3.0, category="task", tid="thread00",
                        ready=1.0)
        report = analyze_trace(tracer).utilization
        track = next(t for t in report.tracks if t.tid == "thread00")
        assert track.blocked_seconds == pytest.approx(1.0)

    def test_formatting_includes_phase_verdict(self, schedule_run):
        tracer, _result = schedule_run
        text = format_utilization(analyze_trace(tracer).utilization, top=5)
        assert "bound by" in text
        assert "[matches scheduler]" in text


# -- rollups & diffs -----------------------------------------------------

class TestRollupsAndDiff:
    def test_rollup_schema_and_validation(self, schedule_run):
        tracer, _result = schedule_run
        rollup = validate_rollup(build_rollup(tracer))
        assert rollup["schema"] == "repro.trace-rollup"
        assert rollup["root"] == "orchestrator.run"
        assert rollup["bound_by"] is not None
        assert rollup["spans"] and rollup["critical"]

    def test_validate_rollup_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_rollup([])
        with pytest.raises(ValueError, match="schema="):
            validate_rollup({"schema": "other"})
        base = {"schema": "repro.trace-rollup", "schema_version": 1,
                "root_seconds": 1.0, "spans": []}
        with pytest.raises(ValueError, match="newer than"):
            validate_rollup(dict(base, schema_version=99))
        with pytest.raises(ValueError, match="root_seconds"):
            validate_rollup(dict(base, root_seconds=-1))
        with pytest.raises(ValueError, match="span entry"):
            validate_rollup(dict(base, spans=[{"name": 3}]))
        with pytest.raises(ValueError, match="span count"):
            validate_rollup(dict(base, spans=[
                {"name": "a", "total_seconds": 1.0, "count": 1.5}]))
        with pytest.raises(ValueError, match="rollup classes"):
            validate_rollup(dict(base, classes=["array"]))
        with pytest.raises(ValueError, match="rollup classes"):
            validate_rollup(dict(base, classes={"array": "busy"}))

    def test_self_diff_is_exactly_zero(self, schedule_run):
        tracer, _result = schedule_run
        rollup = build_rollup(tracer)
        diff = diff_rollups(rollup, rollup)
        assert diff.delta_seconds == 0.0
        assert all(row.delta_seconds == 0.0 for row in diff.rows)
        assert "zero-delta" in format_diff(diff)

    def test_identical_seed_traces_diff_to_zero(self, schedule_run):
        tracer, _result = schedule_run
        other = Tracer()
        Orchestrator(best_perf()).run(CONFIG, batch=BATCH,
                                      seq_len=SEQ_LEN, tracer=other)
        diff = diff_rollups(build_rollup(tracer), build_rollup(other))
        assert diff.delta_seconds == 0.0
        assert all(row.delta_seconds == 0.0 for row in diff.rows)

    def test_injected_slowdown_is_attributed_to_the_right_span(self):
        slow = _toy_tracer()
        fast = Tracer()
        fast.add_span("root", 0.0, 8.5, category="run", tid="top")
        fast.add_span("a", 0.0, 4.0, category="exec", tid="r1")
        fast.add_span("b", 5.0, 8.5, category="exec", tid="r2")
        diff = diff_rollups(build_rollup(fast), build_rollup(slow))
        assert diff.delta_seconds == pytest.approx(1.5)
        top = diff.rows[0]
        assert (top.name, top.status) == ("b", "moved")
        assert top.delta_seconds == pytest.approx(1.5)
        assert "of delta" in format_diff(diff)

    def test_structural_drift_shows_added_and_removed(self):
        base = build_rollup(_toy_tracer())
        tracer = Tracer()
        tracer.add_span("root", 0.0, 10.0, category="run", tid="top")
        tracer.add_span("a", 0.0, 4.0, category="exec", tid="r1")
        tracer.add_span("c", 5.0, 10.0, category="exec", tid="r2")
        diff = diff_rollups(base, build_rollup(tracer))
        statuses = {row.name: row.status for row in diff.rows}
        assert statuses["b"] == "removed"
        assert statuses["c"] == "added"


# -- Chrome-trace round trip ---------------------------------------------

class TestChromeRoundTrip:
    def test_reloaded_trace_preserves_the_invariants(self, schedule_run):
        tracer, result = schedule_run
        data = to_chrome_trace(tracer)
        reloaded = tracer_from_chrome_trace(data)
        analysis = analyze_trace(reloaded)
        assert analysis.path.total_seconds == pytest.approx(
            analysis.path.root_seconds, abs=1e-12)
        assert analysis.path.gap_seconds == 0.0
        assert analysis.utilization.phases[0].bound_by == \
            result.bottleneck

    def test_highlight_track_exports_valid_and_tiles(self, schedule_run):
        tracer, _result = schedule_run
        path = analyze_trace(tracer).path
        extra = critical_path_spans(path)
        data = to_chrome_trace(tracer, extra_spans=extra)
        counts = validate_chrome_trace(data)
        assert counts["spans"] == len(tracer.finished_spans()) + len(extra)
        # Disjoint, contiguous, one track.
        assert all(span.tid == "critical path" for span in extra)
        for left, right in zip(extra, extra[1:]):
            assert right.start == pytest.approx(left.end)

    def test_highlight_track_is_not_reanalyzed_after_reload(
            self, schedule_run):
        tracer, _result = schedule_run
        path = analyze_trace(tracer).path
        data = to_chrome_trace(tracer,
                               extra_spans=critical_path_spans(path))
        reloaded = tracer_from_chrome_trace(data)
        assert not [span for span in reloaded.finished_spans()
                    if span.pid == "analysis"]
        again = analyze_trace(reloaded).path
        assert len(again.hops) == len(path.hops)

    def test_load_trace_accepts_path_dict_and_tracer(
            self, schedule_run, tmp_path):
        tracer, _result = schedule_run
        data = to_chrome_trace(tracer)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        for source in (tracer, data, str(path)):
            assert len(load_trace(source).finished_spans()) >= \
                len([s for s in tracer.finished_spans()])
        with pytest.raises(TypeError):
            load_trace(42)
        with pytest.raises(ValueError, match="traceEvents"):
            tracer_from_chrome_trace({})

    def test_non_finite_ready_is_rejected_on_load(self):
        def trace(ready):
            return {"traceEvents": [
                {"ph": "X", "name": "run", "cat": "run", "pid": 1, "tid": 1,
                 "ts": 0, "dur": 4},
                {"ph": "X", "name": "t", "cat": "task", "pid": 1, "tid": 2,
                 "ts": 2, "dur": 1, "args": {"ready": ready}}]}

        for ready in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError,
                               match="^trace event 1: non-finite 'ready'"):
                tracer_from_chrome_trace(trace(ready))
        # Finite and non-numeric ``ready`` values (sim seconds) still
        # load; only a number counts towards blocked time.
        for ready, blocked in ((0, 2e-6), (1.5e-6, 0.5e-6), ("0", 0.0),
                               (False, 0.0)):
            report = analyze_trace(trace(ready)).utilization
            track = next(t for t in report.tracks if t.tid == "2")
            assert track.blocked_seconds == pytest.approx(blocked)

    def test_same_file_loaded_twice_analyzes_identically(
            self, schedule_run, tmp_path):
        tracer, _result = schedule_run
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(to_chrome_trace(tracer)))
        first = analyze_trace(str(path)).to_json()
        second = analyze_trace(str(path)).to_json()
        assert first == second


# -- CLI -----------------------------------------------------------------

@pytest.fixture(scope="module")
def schedule_trace(tmp_path_factory):
    """A traced schedule exported by ``repro.cli trace``."""
    out = tmp_path_factory.mktemp("trace")
    assert main(["trace", "--workload", "schedule",
                 "--batch", str(BATCH), "--seq-len", str(SEQ_LEN),
                 "--observe", str(out)]) == 0
    return str(out / "trace.json")


class TestAnalyzeCli:
    def test_analyze_trace_ascii(self, schedule_trace, capsys):
        assert main(["analyze", "--trace", schedule_trace,
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "critical path of 'orchestrator.run'" in out
        assert "bound by" in out

    def test_analyze_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze"])
        assert "--trace" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["analyze", "--trace", "x.json", "--scenario",
                  "schedule"])
        assert "unrecognized arguments: --scenario" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        ("not json", "Expecting value"),
        ('{"events": []}', "traceEvents"),
        ('{"traceEvents": [{"ph": "X", "name": "a", "pid": 1, "tid": 1}]}',
         "trace event 0 has no 'ts' key"),
        ('{"traceEvents": [1]}', "trace event 0: not an object"),
        ('{"traceEvents": [{"ph": "X", "name": "a", "pid": 1, "tid": 1, '
         '"ts": 0, "args": [1]}]}', "trace event 0: non-object 'args'"),
        ('{"traceEvents": [{"ph": "i", "name": "a", "pid": 1, "tid": 1, '
         '"ts": "soon"}]}', "trace event 0: non-numeric 'ts'"),
        ('{"traceEvents": [{"ph": "M", "name": "process_name", "pid": 1, '
         '"args": {"name": "p"}}, {"ph": "X", "name": "a", "pid": 1, '
         '"tid": 1, "ts": 0, "dur": null}]}',
         "trace event 1: non-numeric 'dur'"),
        ('{"traceEvents": [{"ph": "X", "name": "a", "pid": 1, "tid": 1, '
         '"ts": 0, "dur": 1e400}]}',
         "trace event 0: span 'a' has NaN or infinite timestamps"),
        ('{"traceEvents": [{"ph": "X", "name": "a", "pid": 1, "tid": 1, '
         '"ts": 0, "dur": 1, "args": {"ready": NaN}}]}',
         "trace event 0: non-finite 'ready' nan"),
        ('{"traceEvents": [{"ph": "X", "name": "a", "pid": 1, "tid": 1, '
         '"ts": 0, "dur": 1, "args": {"ready": -Infinity}}]}',
         "trace event 0: non-finite 'ready' -inf"),
        ('{"traceEvents": [{"ph": "X", "name": "a", "pid": 1, "tid": 1, '
         '"ts": 0, "dur": 1, "args": {"ready": 1' + '0' * 400 + '}}]}',
         "trace event 0: int too large to convert to float"),
    ], ids=["missing", "not-json", "no-trace-events", "event-without-ts",
            "event-not-object", "args-not-object", "ts-not-numeric",
            "dur-not-numeric", "dur-infinite", "ready-nan", "ready-infinite",
            "ready-overflows"])
    def test_analyze_bad_input_fails_with_one_line(self, tmp_path,
                                                    content, message):
        path = tmp_path / "trace.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--trace", str(path)])
        text = str(exit_info.value.code)
        assert text.startswith(f"cannot analyze {path}: ")
        assert message in text and "\n" not in text

    def test_analyze_rejects_nonpositive_top(self, schedule_trace):
        for top in ("0", "-3"):
            with pytest.raises(SystemExit, match="--top"):
                main(["analyze", "--trace", schedule_trace, "--top", top])

    def test_analyze_against_identical_trace_is_zero_delta(
            self, schedule_trace, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--trace", schedule_trace, "--format",
                     "perfetto", "--out", "trace.json"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--trace", "trace.json", "--against",
                     "trace.json", "--format", "json",
                     "--out", "analysis.json"]) == 0
        out = capsys.readouterr().out
        analysis = json.loads(out)
        assert analysis["diff"]["delta_seconds"] == 0.0
        assert all(row["delta_seconds"] == 0.0
                   for row in analysis["diff"]["rows"])
        on_disk = json.loads((tmp_path / "analysis.json").read_text())
        assert on_disk == analysis

    def test_analyze_perfetto_export_validates(self, schedule_trace,
                                               tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--trace", schedule_trace, "--format",
                     "perfetto"]) == 0
        out = capsys.readouterr().out
        assert "critical-path track" in out
        data = json.loads((tmp_path / "analysis.json").read_text())
        validate_chrome_trace(data)
        track_names = [event["args"]["name"]
                       for event in data["traceEvents"]
                       if event.get("ph") == "M"
                       and event["name"] == "thread_name"]
        assert "critical path" in track_names
