"""Tests for the telemetry subsystem: spans, metrics, export, rendering.

Covers the observability invariants the rest of the stack relies on:
span nesting/ordering, bit-identity of every report when the tracer is
disabled, Chrome-trace schema validity of exported JSON, histogram
percentile math at bucket edges, and registry merge semantics.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import best_perf, table4_configs
from repro.arch.accelerated_model import AcceleratedProteinBert
from repro.dataflow import ArrayType, build_seq2seq_graph
from repro.fleet import FleetSimulator, build_fleet
from repro.model import ProteinBert, protein_bert_base, protein_bert_tiny
from repro.proteins.workloads import uniprot_like_workload
from repro.reliability import FaultModel, FaultRates, RetryPolicy
from repro.sched import Orchestrator
import repro.sched.orchestrator as orchestrator_module
from repro.sched.orchestrator import ScheduleResult
from repro.system import CampaignSimulator, ProSESystem
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    Tracer,
    analyze_trace,
    render_tracks,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from tests.oracles import analyze as analyze_oracle
from tests.oracles import schedule_trace

CONFIG = protein_bert_tiny(num_layers=2, hidden_size=64, num_heads=4,
                           intermediate_size=128)


# -- tracer basics -------------------------------------------------------

class TestTracer:
    def test_add_span_records_fields(self):
        tracer = Tracer()
        span = tracer.add_span("work", 1.0, 2.5, pid="p", tid="t",
                               category="exec", bytes=42)
        assert span.duration == pytest.approx(1.5)
        assert span.args == {"bytes": 42}
        assert tracer.finished_spans() == [span]

    def test_add_span_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends .* before it"):
            Tracer().add_span("bad", 2.0, 1.0)

    def test_add_span_rejects_nan_timestamps(self):
        # NaN would pass the end < start check (NaN compares false) and
        # silently poison every downstream export and analysis.
        for start, end in ((float("nan"), 1.0), (0.0, float("nan")),
                           (float("nan"), float("nan"))):
            with pytest.raises(ValueError, match="NaN"):
                Tracer().add_span("bad", start, end)

    def test_instant_rejects_nan_timestamp(self):
        with pytest.raises(ValueError, match="NaN"):
            Tracer().instant("bad", float("nan"))

    @pytest.mark.parametrize("start, end", [
        (0.0, float("inf")), (float("-inf"), 1.0),
        (float("inf"), float("inf")), (float("-inf"), float("-inf"))])
    def test_add_span_rejects_infinite_timestamps(self, start, end):
        # An infinite end would turn every share and composition of the
        # analysis into inf or NaN.
        with pytest.raises(ValueError, match="NaN or infinite"):
            Tracer().add_span("bad", start, end)

    @pytest.mark.parametrize("ts", [float("inf"), float("-inf")])
    def test_instant_rejects_infinite_timestamp(self, ts):
        with pytest.raises(ValueError, match="NaN or infinite"):
            Tracer().instant("bad", ts)

    def test_spans_list_is_the_tracers_own(self):
        # The benchmark probe truncates the list to drop a twin run's
        # spans and checks the newest span by identity.
        tracer = Tracer()
        with tracer.span("outer") as outer:
            pass
        assert tracer.spans is tracer.spans
        assert tracer.spans[-1] is outer
        mark = len(tracer.spans)
        tracer.add_span("dropped", 0.0, 1.0)
        del tracer.spans[mark:]
        assert tracer.spans == [outer] and len(tracer) == 1

    def test_finished_spans_order_is_recording_independent(self):
        def keys(tracer):
            return [(s.name, s.start) for s in tracer.finished_spans()]

        forward, backward = Tracer(), Tracer()
        spans = [("a", 1.0, 2.0, "p1", "x"), ("b", 0.0, 1.0, "p0", "y"),
                 ("c", 1.0, 2.0, "p0", "y"), ("d", 0.5, 3.0, "p1", "x")]
        for name, start, end, pid, tid in spans:
            forward.add_span(name, start, end, pid=pid, tid=tid)
        for name, start, end, pid, tid in reversed(spans):
            backward.add_span(name, start, end, pid=pid, tid=tid)
        assert keys(forward) == keys(backward)
        assert keys(forward) == [("b", 0.0), ("d", 0.5), ("c", 1.0),
                                 ("a", 1.0)]

    def test_wall_clock_spans_nest_via_parent_id(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_wall_clock_spans_close_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.finished_spans()
        assert span.end is not None


# -- bulk sim-time spans ------------------------------------------------

#: Rows of a small schedule-shaped trace: (name, start, end, pid, tid,
#: category, args).  The run row carries the inventory a phase verdict
#: needs; task rows carry the ``ready`` time blocked accounting reads.
BULK_ROWS = [
    ("a:xfer0", 0.0, 0.5, "inst", "channel:M", "stream", {"bytes": 64}),
    ("a:seg0", 0.0, 2.0, "inst", "1x 16x16 M[0]", "exec",
     {"compute_seconds": 1.5, "array_size": 16}),
    ("a", 0.0, 2.0, "inst", "thread00", "task",
     {"kind": "matmul", "resource": "1x 16x16 M[0]", "ready": 0.0}),
    ("b", 1.0, 3.0, "inst", "host[0]", "host", {"ops": 2}),
    ("b", 0.5, 3.0, "inst", "thread01", "task",
     {"kind": "host", "resource": "host", "ready": 0.25}),
    ("c:seg0", 2.0, 2.0, "inst", "1x 16x16 M[0]", "exec", {}),
    ("orchestrator.run", 0.0, 3.0, "inst", "schedule", "run",
     {"host_slots": 1, "arrays_m": 1, "bottleneck": "array:M"}),
]


def add_rows(tracer, names, starts, ends, tracks, categories, args):
    """Record rows through :meth:`Tracer.add_spans`, each with its own
    name, category and args table entry and no ready column."""
    codes = np.arange(len(names))
    tracer.add_spans(names, categories, args, codes, codes, codes, starts,
                     ends, tracks, np.full(len(names), np.nan))


def _mixed_trace(bulk):
    """One trace with bulk rows, parented add_span spans, wall-clock
    spans and instants, recorded through ``add_spans`` (``bulk``) or
    through one ``add_span`` call per row."""
    tracer = Tracer()
    ticks = iter(range(1, 100))
    tracer.now = lambda: next(ticks) * 1e-3  # a deterministic wall clock

    def record(rows):
        if not bulk:
            for name, start, end, pid, tid, category, args in rows:
                tracer.add_span(name, start, end, pid=pid, tid=tid,
                                category=category, **args)
            return
        # Coded as the orchestrator codes them: one table entry per
        # distinct name and category, and the ready times in the ready
        # column, their args entries holding a None placeholder.
        names, starts, ends, pids, tids, categories, args = zip(*rows)
        name_table = list(dict.fromkeys(names))
        category_table = list(dict.fromkeys(categories))
        arg_table = [dict(row, ready=None) if "ready" in row else dict(row)
                     for row in args]
        tracer.add_spans(
            name_table, category_table, arg_table,
            [name_table.index(name) for name in names],
            [category_table.index(category) for category in categories],
            range(len(rows)), starts, ends,
            [tracer.track(pid, tid) for pid, tid in zip(pids, tids)],
            [row.get("ready", np.nan) for row in args])

    with tracer.span("setup", tid="driver"):
        with tracer.span("plan", tid="driver", step=1):
            pass
    parent = tracer.add_span("system", 0.0, 3.0, pid="inst", tid="system",
                             category="shard", instance=0)
    record(BULK_ROWS[:4])
    tracer.add_span("attempt", 0.5, 1.0, pid="inst", tid="system",
                    category="batch", parent=parent, attempt=1)
    tracer.instant("retry", 1.0, pid="inst", tid="system", attempt=2)
    record(BULK_ROWS[4:])
    tracer.add_span("late", 2.5, 3.0, pid="inst", tid="system",
                    category="recovery", parent=parent)
    return tracer


class TestSpanColumns:
    def test_bulk_rows_record_what_add_span_records(self):
        bulk, single = _mixed_trace(bulk=True), _mixed_trace(bulk=False)
        assert len(bulk) == len(single) == 12
        # The column pass first, before any Span object is built...
        analysis = analyze_trace(bulk).to_json()
        assert analysis == analyze_trace(single).to_json()
        assert json.dumps(to_chrome_trace(bulk)) == json.dumps(
            to_chrome_trace(single))
        # ...then the spans themselves: ids, parents and order included.
        assert bulk.spans == single.spans
        assert [span.span_id for span in bulk.spans] == list(range(1, 13))
        assert analyze_trace(bulk).to_json() == analysis

    def test_schedule_columns_analyze_like_their_spans(self):
        tracer = Tracer()
        Orchestrator(best_perf()).run(CONFIG, batch=4, seq_len=64,
                                      tracer=tracer)
        analysis = analyze_trace(tracer).to_json()
        rebuilt = Tracer()
        for span in tracer.spans:
            rebuilt.add_span(span.name, span.start, span.end, pid=span.pid,
                             tid=span.tid, category=span.category,
                             **span.args)
        assert rebuilt.spans == tracer.spans
        assert analyze_trace(rebuilt).to_json() == analysis

    def test_bulk_rows_are_checked_like_single_spans(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        for start, end, message in (
                (float("nan"), 1.0, "NaN or infinite"),
                (0.0, float("inf"), "NaN or infinite"),
                (float("-inf"), 0.0, "NaN or infinite"),
                (2.0, 1.0, "ends .* before it")):
            with pytest.raises(ValueError, match=message) as error:
                add_rows(tracer, ["ok", "bad"], [0.0, start], [1.0, end],
                         [track, track], ["exec", "exec"], [{}, {}])
            with pytest.raises(ValueError) as single:
                Tracer().add_span("bad", start, end)
            assert str(error.value) == str(single.value)
        codes = np.zeros(1, dtype=np.intp)
        for short in range(7):
            columns = [codes, codes, codes, [0.0], [1.0], [track], [0.0]]
            columns[short] = np.zeros((2,) if short % 2 else (1, 1))
            with pytest.raises(ValueError, match="differ in length"):
                tracer.add_spans(["a"], ["exec"], [{}], *columns)
        assert len(tracer) == 0

    def test_built_spans_do_not_share_args(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        shared = {"array_size": 16, "ready": None}
        tracer.add_spans(["a", "b"], ["exec"], [shared], [0, 1], [0, 0],
                         [0, 0], [0.0, 1.0], [1.0, 2.0], [track, track],
                         [0.5, np.nan])
        first, second = tracer.spans
        first.args["array_size"] = 32
        assert shared == {"array_size": 16, "ready": None}
        assert list(first.args.items()) == [("array_size", 32),
                                            ("ready", 0.5)]
        assert second.args == shared


def _decoded(columns):
    """Each row of coded span columns as ``(name, start, end, pid, tid,
    category, args items, span id)``: the row's args are its table entry
    with ``ready`` set from the ready column unless that is NaN."""
    rows = []
    for row in range(len(columns.ids)):
        args = dict(columns.args[columns.arg_codes[row]])
        if not np.isnan(columns.ready[row]):
            args["ready"] = float(columns.ready[row])
        rows.append((columns.names[columns.name_codes[row]],
                     float(columns.starts[row]), float(columns.ends[row]),
                     *columns.labels[columns.tracks[row]],
                     columns.categories[columns.category_codes[row]],
                     list(args.items()), int(columns.ids[row])))
    return rows


class TestScheduleColumns:
    """A traced schedule's columns and its ``Span`` objects against the
    list-built walk of the same placement log that the columnar
    ``_trace`` replaced (``tests/oracles/schedule_trace.py``): names,
    times, tracks, categories, args with their key order, and ids."""

    @staticmethod
    def traced(monkeypatch, hardware, batch, **kwargs):
        logs = []
        build = orchestrator_module._trace

        def capture(tracer, *log):
            logs.append(log)
            build(tracer, *log)

        monkeypatch.setattr(orchestrator_module, "_trace", capture)
        tracer = Tracer()
        result = Orchestrator(hardware).run(
            protein_bert_base(), batch=batch, seq_len=64, tracer=tracer,
            **kwargs)
        (log,) = logs
        expected = [(name, start, end, pid, tid, category,
                     list(args.items()), span_id)
                    for span_id, (name, start, end, pid, tid, category, args)
                    in enumerate(schedule_trace.spans(*log), 1)]
        assert _decoded(tracer.sim_columns()) == expected
        assert [(span.name, span.start, span.end, span.pid, span.tid,
                 span.category, list(span.args.items()), span.span_id)
                for span in tracer.spans] == expected
        return result, expected

    @pytest.mark.parametrize("batch", [2, 8, 32])
    @pytest.mark.parametrize("hardware", table4_configs(),
                             ids=lambda hardware: hardware.name)
    def test_table4_configs(self, monkeypatch, hardware, batch):
        self.traced(monkeypatch, hardware, batch)

    def test_task_records_match_the_task_spans(self, monkeypatch):
        result, expected = self.traced(monkeypatch, best_perf(), 8,
                                       record_tasks=True)
        tasks = [(name, start, end, tid, dict(args)) for
                 name, start, end, _, tid, category, args, _ in expected
                 if category == "task"]
        assert [(record.name, record.start, record.end,
                 f"thread{record.thread:02d}", record.kind,
                 record.resource, record.ready)
                for record in result.task_log] == [
            (name, start, end, tid, args["kind"], args["resource"],
             args["ready"]) for name, start, end, tid, args in tasks]
        assert {args["kind"] for *_, args in tasks} > {"host"}

    def test_graph_builder_override(self, monkeypatch):
        config = protein_bert_base()
        _, expected = self.traced(
            monkeypatch, best_perf(), 8,
            graph_builder=lambda sub: build_seq2seq_graph(
                config, batch=sub, src_len=64, tgt_len=32))
        assert any(name.startswith("dec") for name, *_ in expected)

    def test_system_trace_keeps_recording_order(self):
        # Each instance's schedule is one bulk block, followed by that
        # instance's add_span shard span.
        tracer = Tracer()
        ProSESystem(best_perf(), instances=3).simulate(
            protein_bert_base(), batch=6, seq_len=64, tracer=tracer)
        columns = tracer.sim_columns()
        assert columns.ids.tolist() == list(range(1, len(tracer) + 1))
        categories = [columns.categories[code]
                      for code in columns.category_codes]
        runs, shards = ([row for row, category in enumerate(categories)
                         if category == wanted]
                        for wanted in ("run", "shard"))
        assert [run + 1 for run in runs] == shards and len(shards) == 3
        analysis = analyze_trace(tracer).to_json()
        assert analysis == analyze_oracle.analyze(tracer).to_json()
        assert _decoded(columns) == [
            (span.name, span.start, span.end, span.pid, span.tid,
             span.category, list(span.args.items()), span.span_id)
            for span in tracer.spans]
        assert analyze_trace(tracer).to_json() == analysis


# -- scheduler instrumentation ------------------------------------------

class TestOrchestratorTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        result = Orchestrator(best_perf()).run(
            CONFIG, batch=4, seq_len=64, tracer=tracer, metrics=metrics)
        return tracer, metrics, result

    def test_result_bit_identical_without_tracer(self, traced):
        _tracer, _metrics, instrumented = traced
        plain = Orchestrator(best_perf()).run(CONFIG, batch=4, seq_len=64)
        assert plain == instrumented

    def test_spans_cover_every_reservation(self, traced):
        tracer, metrics, _result = traced
        reservations = metrics.counter("sched/reservations").value
        resource_spans = [
            span for span in tracer.finished_spans()
            if span.category in ("exec", "stream", "host")]
        assert len(resource_spans) == reservations > 0

    def test_task_spans_nest_inside_run_span(self, traced):
        tracer, _metrics, result = traced
        (run_span,) = [span for span in tracer.finished_spans()
                       if span.tid == "schedule"]
        assert run_span.end == pytest.approx(result.makespan_seconds)
        for span in tracer.finished_spans():
            assert span.start >= -1e-12
            assert span.end <= run_span.end + 1e-9

    def test_exported_trace_validates(self, traced):
        tracer, _metrics, _result = traced
        counts = validate_chrome_trace(to_chrome_trace(tracer))
        assert counts["spans"] == len(tracer.finished_spans())

    def test_task_metrics_histogram_populated(self, traced):
        _tracer, metrics, result = traced
        histogram = metrics.histogram("sched/task_seconds")
        assert histogram.count > 0
        assert metrics.gauge("sched/makespan_seconds").value == (
            pytest.approx(result.makespan_seconds))


class TestBottleneckTieBreak:
    @staticmethod
    def _result(host, arrays, links):
        return ScheduleResult(
            makespan_seconds=1.0, batch=1, seq_len=8, threads=1,
            array_utilization=arrays, channel_utilization=links,
            host_utilization=host, total_stream_bytes=0,
            total_dispatches=0, contention_seconds=0.0)

    def test_exact_tie_prefers_array_over_link_over_host(self):
        tied = {ArrayType.M: 0.5}
        result = self._result(0.5, dict(tied), dict(tied))
        assert result.bottleneck == "array:M"
        result = self._result(0.5, {ArrayType.M: 0.4}, dict(tied))
        assert result.bottleneck == "link:M"
        result = self._result(0.5, {ArrayType.M: 0.4}, {ArrayType.M: 0.4})
        assert result.bottleneck == "host"

    def test_tie_within_class_breaks_alphabetically(self):
        arrays = {ArrayType.M: 0.7, ArrayType.G: 0.7, ArrayType.E: 0.7}
        result = self._result(0.1, arrays, {ArrayType.M: 0.1})
        assert result.bottleneck == "array:E"

    def test_higher_utilization_always_wins(self):
        result = self._result(
            0.9, {ArrayType.M: 0.2}, {ArrayType.G: 0.3})
        assert result.bottleneck == "host"


# -- system / serving / functional bit-identity -------------------------

class TestSystemTracing:
    def test_simulate_bit_identical_with_tracer(self):
        system = ProSESystem(best_perf(), instances=2)
        plain = system.simulate(CONFIG, batch=4, seq_len=64)
        tracer = Tracer()
        traced = system.simulate(CONFIG, batch=4, seq_len=64,
                                 tracer=tracer, metrics=MetricsRegistry())
        assert plain == traced
        assert any(span.category == "shard"
                   for span in tracer.finished_spans())
        validate_chrome_trace(to_chrome_trace(tracer))

    def test_faulty_simulate_bit_identical_with_tracer(self):
        # The two-instance system under faults, on the fleet model.
        topology = build_fleet(racks=1, hosts_per_rack=1,
                               instances_per_host=2)
        rates = FaultRates(instance_failure=0.9, link_transient=0.05)

        def run(**observers):
            return FleetSimulator(
                topology, model_config=CONFIG, seq_len=64,
                reference_batch=2, fault_model=FaultModel(rates, seed=7)
            ).run(batch=4, **observers)

        plain = run()
        tracer = Tracer()
        traced = run(tracer=tracer, metrics=MetricsRegistry())
        assert plain.failures > 0
        assert plain == traced
        assert any(span.category == "fault"
                   for span in tracer.finished_spans())
        validate_chrome_trace(to_chrome_trace(tracer))


class TestServingTracing:
    def test_campaign_bit_identical_with_tracer(self):
        workload = uniprot_like_workload(count=16, seed=5,
                                         max_length=200)
        plain = CampaignSimulator(CONFIG).run_on_prose(workload)
        tracer = Tracer()
        metrics = MetricsRegistry()
        traced = CampaignSimulator(CONFIG).run_on_prose(
            workload, tracer=tracer, metrics=metrics)
        assert plain == traced
        assert metrics.counter("serving/sequences").value == 16
        assert metrics.histogram(
            "serving/batch_latency_seconds").count == sum(
                span.category == "batch" for span in tracer.finished_spans())
        validate_chrome_trace(to_chrome_trace(tracer))

    def test_faulty_campaign_traces_retries(self):
        workload = uniprot_like_workload(count=16, seed=5,
                                         max_length=200)
        faults = FaultModel(FaultRates(batch_failure=0.5), seed=11)
        tracer = Tracer()
        traced = CampaignSimulator(
            CONFIG, fault_model=faults,
            retry_policy=RetryPolicy(backoff_base_seconds=0.0001,
                                     backoff_cap_seconds=0.001),
        ).run_on_prose(workload, tracer=tracer)
        assert traced.reliability is not None
        if traced.reliability.retries:
            assert any(event.name == "retry" for event in tracer.instants)
        validate_chrome_trace(to_chrome_trace(tracer))


class TestFunctionalTracing:
    def test_forward_bit_identical_and_instrumented(self):
        tokens = np.arange(12, dtype=np.int64).reshape(2, 6) % 20
        plain_model = ProteinBert(CONFIG, seed=3)
        plain = AcceleratedProteinBert(plain_model, array_size=8).forward(
            tokens)
        tracer = Tracer()
        metrics = MetricsRegistry()
        traced_model = ProteinBert(CONFIG, seed=3)
        traced = AcceleratedProteinBert(
            traced_model, array_size=8, tracer=tracer,
            metrics=metrics).forward(tokens)
        assert np.array_equal(plain, traced)
        names = [span.name for span in tracer.finished_spans()]
        assert "embed" in names and "forward" in names
        assert "encoder_layer[0]" in names
        assert metrics.counter("functional/forward_passes").value == 1
        assert metrics.counter("functional/tiles").value > 0
        validate_chrome_trace(to_chrome_trace(tracer))


# -- histogram percentile math ------------------------------------------

class TestHistogram:
    def test_edge_value_lands_in_edge_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        histogram.observe(2.0)  # exactly on an edge
        assert histogram.counts == [0, 1, 0, 0]

    def test_observe_many_matches_one_observe_per_value(self):
        values = [0.3, 2.0, 1e-5, 7.0, 2.0, 0.1 + 0.2, 1, 4.0]
        for already in ((), (0.5,), (9.0, 1e-6)):
            one, many = Histogram("one"), Histogram("many")
            for value in already:
                one.observe(value)
                many.observe(value)
            for value in values:
                one.observe(value)
            many.observe_many(values)
            many.observe_many([])
            assert (many.counts, many.count, many.total, many.min,
                    many.max) == (one.counts, one.count, one.total,
                                  one.min, one.max)

    @given(st.lists(st.floats(allow_nan=False), max_size=3),
           st.lists(st.floats(allow_nan=False)
                    | st.sampled_from([1e-4, 2.5e-4, 1.0, -0.0, 0.0]),
                    max_size=60),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_observe_many_column_matches_observe(self, already, values,
                                                  as_array):
        one, many = Histogram("one"), Histogram("many")
        for value in already:
            one.observe(value)
            many.observe(value)
        for value in values:
            one.observe(value)
        many.observe_many(np.array(values) if as_array else values)
        assert (many.counts, many.count, many.min, many.max) == (
            one.counts, one.count, one.min, one.max)
        assert str(many.total) == str(one.total)
        assert all(type(value) in (float, type(None)) for value in (
            many.total, many.min, many.max))

    @pytest.mark.parametrize("first", [5.0, float("nan")])
    def test_nan_is_rejected_in_either_order(self, first):
        # NaN raises and counts nothing, so min/max do not depend on
        # whether it came before or after a number.
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (first, 5.0 if first != first else float("nan")):
            if value != value:
                with pytest.raises(ValueError,
                                   match="^histogram h cannot observe NaN$"):
                    histogram.observe(value)
                with pytest.raises(ValueError,
                                   match="^histogram h cannot observe NaN$"):
                    histogram.observe_many([1.0, value, 20.0])
            else:
                histogram.observe(value)
        assert (histogram.counts, histogram.count, histogram.total,
                histogram.min, histogram.max) == ([0, 1, 0], 1, 5.0, 5.0,
                                                  5.0)

    def test_percentiles_at_bucket_edges(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 2.0, 4.0):
            histogram.observe(value)
        # counts per bucket: (<=1): 1, (1, 2]: 2, (2, 4]: 1
        assert histogram.percentile(0) == pytest.approx(1.0)
        assert histogram.percentile(100) == pytest.approx(4.0)
        # rank 3 exhausts the (1, 2] bucket exactly -> its upper edge
        assert histogram.percentile(75) == pytest.approx(2.0)
        # rank 2 is halfway through (1, 2] -> linear interpolation
        assert histogram.percentile(50) == pytest.approx(1.5)

    def test_percentile_clamped_to_min_max(self):
        histogram = Histogram("h", bounds=(10.0,))
        histogram.observe(3.0)
        histogram.observe(5.0)
        for q in (1, 50, 99):
            assert 3.0 <= histogram.percentile(q) <= 5.0

    def test_overflow_bucket_uses_observed_max(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(100.0)
        assert histogram.percentile(99) == pytest.approx(100.0)

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0,)).percentile(50)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_merge_requires_identical_bounds(self):
        left = Histogram("h", bounds=(1.0, 2.0))
        right = Histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_accumulates(self):
        left = Histogram("h", bounds=(1.0, 2.0))
        right = Histogram("h", bounds=(1.0, 2.0))
        left.observe(0.5)
        right.observe(1.5)
        left.merge(right)
        assert left.count == 2
        assert left.min == 0.5 and left.max == 1.5

    # Persisted BENCH records quote these percentiles verbatim, so the
    # extreme-q and post-merge paths must be exact, not just plausible.

    def test_q0_is_exactly_the_minimum(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (1.7, 2.3, 3.9):
            histogram.observe(value)
        assert histogram.percentile(0) == 1.7

    def test_q100_is_exactly_the_maximum(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.2, 1.1, 3.3):
            histogram.observe(value)
        assert histogram.percentile(100) == 3.3

    def test_q1_stays_inside_the_first_populated_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (1.5, 1.6, 3.0, 3.5):
            histogram.observe(value)
        estimate = histogram.percentile(1)
        assert 1.5 <= estimate <= 2.0

    def test_single_observation_answers_every_q_exactly(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        histogram.observe(2.5)
        for q in (0, 1, 50, 99, 100):
            assert histogram.percentile(q) == 2.5

    def test_out_of_range_q_rejected(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(0.5)
        for q in (-0.1, 100.1):
            with pytest.raises(ValueError):
                histogram.percentile(q)

    def test_post_merge_percentiles_interpolate_over_joint_counts(self):
        left = Histogram("h", bounds=(1.0, 2.0, 4.0))
        right = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5):
            left.observe(value)
        for value in (1.5, 3.0):
            right.observe(value)
        left.merge(right)
        # joint counts: [1, 2, 1, 0]; min 0.5, max 3.0
        assert left.percentile(0) == 0.5
        assert left.percentile(100) == 3.0
        # rank 2 = (0.5, 1] bucket exhausted + half of (1, 2]
        assert left.percentile(50) == pytest.approx(1.5)
        # rank 3 exhausts (1, 2] -> its upper edge exactly
        assert left.percentile(75) == pytest.approx(2.0)
        # estimates stay monotone in q after the merge
        estimates = [left.percentile(q) for q in range(0, 101, 5)]
        assert estimates == sorted(estimates)

    def test_merge_into_empty_adopts_min_max(self):
        empty = Histogram("h", bounds=(1.0, 2.0))
        full = Histogram("h", bounds=(1.0, 2.0))
        full.observe(1.5)
        empty.merge(full)
        assert empty.min == 1.5 and empty.max == 1.5
        assert empty.percentile(50) == 1.5


class TestMetricsRegistry:
    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(TypeError):
            registry.gauge("metric")

    def test_merge_prefixed_and_aggregated(self):
        parent = MetricsRegistry()
        child = MetricsRegistry()
        child.counter("requests").inc(3)
        child.gauge("depth").set(7)
        parent.merge(child, prefix="instance0")
        parent.merge(child)
        parent.merge(child)
        assert parent.counter("instance0/requests").value == 3
        assert parent.counter("requests").value == 6
        assert parent.gauge("depth").value == 7

    def test_rows_include_percentile_columns(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(0.5)
        (row,) = registry.rows()
        assert row["type"] == "histogram"
        assert set(("p50", "p95", "p99")) <= set(row)

    # BENCH records snapshot merged registries; a prefixed merge that
    # lands on an existing name must aggregate (same type) or fail
    # loudly (type clash) — never silently overwrite.

    def test_prefixed_merge_onto_same_type_aggregates(self):
        parent = MetricsRegistry()
        parent.counter("instance0/requests").inc(2)
        child = MetricsRegistry()
        child.counter("requests").inc(3)
        parent.merge(child, prefix="instance0")
        assert parent.counter("instance0/requests").value == 5

    def test_prefixed_merge_type_clash_raises(self):
        parent = MetricsRegistry()
        parent.gauge("instance0/requests").set(1)
        child = MetricsRegistry()
        child.counter("requests").inc(3)
        with pytest.raises(TypeError, match="instance0/requests"):
            parent.merge(child, prefix="instance0")

    def test_prefixed_merge_histogram_bounds_clash_raises(self):
        parent = MetricsRegistry()
        parent.histogram("instance0/lat", bounds=(1.0, 2.0)).observe(0.5)
        child = MetricsRegistry()
        child.histogram("lat", bounds=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket mismatch"):
            parent.merge(child, prefix="instance0")

    def test_child_name_already_containing_prefix_separator(self):
        parent = MetricsRegistry()
        child = MetricsRegistry()
        child.counter("sched/dispatches").inc(4)
        parent.merge(child, prefix="instance1")
        assert parent.counter("instance1/sched/dispatches").value == 4


# -- export and rendering ------------------------------------------------

class TestExport:
    def _sample_tracer(self):
        tracer = Tracer()
        parent = tracer.add_span("outer", 0.0, 2.0, pid="p", tid="t")
        tracer.add_span("inner", 0.5, 1.5, pid="p", tid="t",
                        parent=parent)
        tracer.instant("tick", 1.0, pid="p", tid="t")
        return tracer

    def test_round_trip_through_json_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._sample_tracer(), str(path),
                           metadata={"run": "test"})
        data = json.loads(path.read_text())
        counts = validate_chrome_trace(data)
        assert counts == {"spans": 2, "instants": 1, "counters": 0,
                          "processes": 1, "tracks": 1}
        assert data["otherData"] == {"run": "test"}

    def test_timestamps_exported_in_microseconds(self):
        data = to_chrome_trace(self._sample_tracer())
        inner = next(event for event in data["traceEvents"]
                     if event.get("name") == "inner")
        assert inner["ts"] == pytest.approx(0.5e6)
        assert inner["dur"] == pytest.approx(1.0e6)

    def test_validator_rejects_partial_overlap(self):
        tracer = Tracer()
        tracer.add_span("a", 0.0, 2.0, pid="p", tid="t")
        tracer.add_span("b", 1.0, 3.0, pid="p", tid="t")
        with pytest.raises(ValueError, match="partially overlaps"):
            validate_chrome_trace(to_chrome_trace(tracer))

    def test_non_primitive_args_coerced(self):
        tracer = Tracer()
        tracer.add_span("s", 0.0, 1.0, payload=object())
        json.dumps(to_chrome_trace(tracer))  # must not raise

    def test_counter_tracks_validate_with_spans(self):
        # A full-featured export: spans + metric and monitor counter
        # ("C") tracks, all in one document.
        from repro.telemetry import TimeSeriesStore

        tracer = self._sample_tracer()
        registry = MetricsRegistry()
        registry.counter("sched/dispatches").inc(3)
        registry.gauge("fleet/capacity").set(0.75)
        store = TimeSeriesStore()
        store.add([0.0, 0.5, 1.0], {"queue_depth": [1.0, 3.0, 2.0]})
        data = to_chrome_trace(tracer, metrics=registry, series=store)
        counts = validate_chrome_trace(data)
        assert counts["counters"] == 2 + 3  # 2 metrics + 3 samples
        assert counts["spans"] >= 2  # the sample spans
        assert counts["processes"] >= 3  # sample pids, metrics, monitor
        phases = {event["ph"] for event in data["traceEvents"]}
        assert {"X", "i", "M", "C"} <= phases

    def test_validator_rejects_non_numeric_counter_values(self):
        data = {"traceEvents": [
            {"ph": "C", "name": "bad", "pid": 1, "tid": 0, "ts": 0.0,
             "args": {"value": "high"}}]}
        with pytest.raises(ValueError, match="must be numeric"):
            validate_chrome_trace(data)
        data["traceEvents"][0]["args"] = {}
        with pytest.raises(ValueError, match="non-empty args"):
            validate_chrome_trace(data)

    def test_metrics_dumps(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        registry.histogram("lat").observe(0.01)
        jsonl_path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(registry, str(jsonl_path))
        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == 2
        counter = json.loads(lines[0])
        assert (counter["name"], counter["type"], counter["value"]) == \
            ("n", "counter", 2)
        assert json.loads(lines[1])["type"] == "histogram"


class TestRenderTracks:
    def test_axis_and_glyphs(self):
        chart = render_tracks({"array": [(0.0, 0.5, "m")],
                               "link": [(0.5, 1.0, "s")]},
                              makespan=1.0, width=20)
        lines = chart.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("array |m")
        assert lines[1].rstrip().endswith("s|")
        assert "ms" in lines[2]

    def test_zero_makespan_renders_idle(self):
        chart = render_tracks({"t": [(0.0, 0.0, "x")]}, makespan=0.0,
                              width=10)
        assert "|.........." in chart.splitlines()[0] or (
            "|" in chart.splitlines()[0])
