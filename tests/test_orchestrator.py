"""Tests for the multithreaded orchestration simulator (Figure 8)."""

from collections import defaultdict

import pytest

from repro.arch import (
    best_perf,
    homogeneous,
    infinite_link,
    nvlink,
    table4_configs,
)
from repro.model import protein_bert_base, protein_bert_tiny
from repro.sched import HostModel, Orchestrator
from repro.telemetry import Tracer

# A small but structurally complete workload for fast scheduling tests.
CONFIG = protein_bert_tiny(num_layers=4, hidden_size=128, num_heads=4,
                           intermediate_size=512, max_position=256)


@pytest.fixture(scope="module")
def result():
    return Orchestrator(best_perf()).run(CONFIG, batch=16, seq_len=128)


class TestScheduleBasics:
    def test_makespan_positive(self, result):
        assert result.makespan_seconds > 0

    def test_throughput_is_batch_over_makespan(self, result):
        assert result.throughput == pytest.approx(
            16 / result.makespan_seconds)

    def test_utilizations_in_unit_interval(self, result):
        for value in result.array_utilization.values():
            assert 0.0 <= value <= 1.0
        for value in result.channel_utilization.values():
            assert 0.0 <= value <= 1.0
        assert 0.0 <= result.host_utilization <= 1.0

    def test_stream_bytes_positive(self, result):
        assert result.total_stream_bytes > 0

    def test_dispatch_count(self, result):
        # Per thread-layer: 5 DF1 + DF2 (1 segment each) + DF3 (2 accel
        # segments) = 8 accel dispatches; 16 threads x 4 layers.
        assert result.total_dispatches == 16 * 4 * 8

    def test_deterministic(self):
        first = Orchestrator(best_perf()).run(CONFIG, batch=8, seq_len=64)
        second = Orchestrator(best_perf()).run(CONFIG, batch=8, seq_len=64)
        assert first.makespan_seconds == second.makespan_seconds

    def test_reused_orchestrator_is_deterministic(self):
        # One instance, two identical runs: no placement state may carry
        # over from the first run into the second.
        orchestrator = Orchestrator(best_perf())
        first = orchestrator.run(CONFIG, batch=7, seq_len=64,
                                 record_tasks=True)
        second = orchestrator.run(CONFIG, batch=7, seq_len=64,
                                  record_tasks=True)
        assert first.task_log
        assert first == second

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            Orchestrator(best_perf()).run(CONFIG, batch=0, seq_len=64)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-6])
    def test_bad_dispatch_overhead_rejected(self, value):
        with pytest.raises(ValueError, match="dispatch_overhead"):
            Orchestrator(best_perf(), dispatch_overhead=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_bad_contention_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match="contention_coefficient"):
            Orchestrator(best_perf(), contention_coefficient=value)

    def test_zero_overhead_and_contention_accepted(self):
        # The sensitivity study sweeps the contention coefficient down
        # to zero.
        result = Orchestrator(best_perf(), contention_coefficient=0.0,
                              dispatch_overhead=0.0).run(
            CONFIG, batch=4, seq_len=64)
        assert result.contention_seconds == 0.0
        assert result.makespan_seconds > 0


class TestThreadScaling:
    def test_more_threads_helps_up_to_saturation(self):
        orchestrator = Orchestrator(best_perf())
        t1 = orchestrator.run(CONFIG, batch=32, seq_len=128, threads=1)
        t8 = orchestrator.run(CONFIG, batch=32, seq_len=128, threads=8)
        assert t8.throughput > 2.0 * t1.throughput

    def test_threads_clamped_to_batch(self):
        result = Orchestrator(best_perf()).run(CONFIG, batch=4,
                                               seq_len=64, threads=32)
        assert result.threads == 4

    def test_contention_grows_with_threads(self):
        orchestrator = Orchestrator(best_perf())
        low = orchestrator.run(CONFIG, batch=32, seq_len=64, threads=4)
        high = orchestrator.run(CONFIG, batch=32, seq_len=64, threads=32)
        assert high.contention_seconds > low.contention_seconds


class TestResourceModel:
    def test_bandwidth_bound_at_tiny_link(self):
        from repro.arch import custom_link
        starved = best_perf().with_link(custom_link(1.0))
        result = Orchestrator(starved).run(CONFIG, batch=8, seq_len=128)
        assert not result.compute_bound

    def test_infinite_bandwidth_faster(self):
        base = Orchestrator(best_perf()).run(CONFIG, batch=16, seq_len=128)
        fast = Orchestrator(best_perf().with_link(infinite_link())).run(
            CONFIG, batch=16, seq_len=128)
        assert fast.makespan_seconds <= base.makespan_seconds

    def test_bigger_link_never_slower(self):
        slow = Orchestrator(best_perf().with_link(nvlink(2, 0.8))).run(
            CONFIG, batch=16, seq_len=128)
        fast = Orchestrator(best_perf().with_link(nvlink(3, 0.9))).run(
            CONFIG, batch=16, seq_len=128)
        assert fast.makespan_seconds <= slow.makespan_seconds * 1.001

    def test_pooled_config_uses_all_arrays(self):
        result = Orchestrator(homogeneous()).run(CONFIG, batch=16,
                                                 seq_len=128)
        # In pooled mode every array executes every kind: the nominally
        # G- and E-typed arrays carry substantial load too (a strictly
        # typed schedule would put ~70% of the work on the M group).
        values = result.array_utilization
        assert min(values.values()) > 0.15
        assert max(values.values()) / min(values.values()) < 3.0

    def test_task_log_records_everything(self):
        result = Orchestrator(best_perf()).run(
            CONFIG, batch=4, seq_len=64, record_tasks=True)
        # 4 threads x (1 embeddings + 4 layers x 9 nodes).
        assert len(result.task_log) == 4 * (1 + 4 * 9)
        for record in result.task_log:
            assert record.end >= record.start >= record.ready - 1e-12

    def test_task_log_absent_by_default(self, result):
        assert result.task_log is None

    def test_host_tasks_share_pool(self):
        slow_host = HostModel(slots=1, elementwise_throughput=1e8,
                              flops_throughput=1e8)
        fast_host = HostModel(slots=8, elementwise_throughput=1e11,
                              flops_throughput=1e11)
        slow = Orchestrator(best_perf(), host=slow_host).run(
            CONFIG, batch=8, seq_len=128)
        fast = Orchestrator(best_perf(), host=fast_host).run(
            CONFIG, batch=8, seq_len=128)
        assert slow.makespan_seconds > fast.makespan_seconds

    def test_bottleneck_label_valid(self, result):
        assert result.bottleneck.split(":")[0] in ("array", "link", "host")

    def test_kind_attribution_covers_all_kinds(self, result):
        assert set(result.kind_compute_seconds) == {
            "dataflow1", "dataflow2", "dataflow3"}
        assert all(value > 0
                   for value in result.kind_compute_seconds.values())

    def test_kind_attribution_independent_of_threads(self):
        # Compute demand per kind is workload-determined, not schedule-
        # determined.
        a = Orchestrator(best_perf()).run(CONFIG, batch=8, seq_len=64,
                                          threads=2)
        b = Orchestrator(best_perf()).run(CONFIG, batch=8, seq_len=64,
                                          threads=8)
        for kind in a.kind_compute_seconds:
            assert a.kind_compute_seconds[kind] == pytest.approx(
                b.kind_compute_seconds[kind], rel=0.05)



class TestScheduleInvariants:
    """Resource bounds on real BERT-base schedules, one case per Table 4
    config: no resource or thread runs two things at once, nothing is
    busier than 100%, and no thread works longer than the makespan."""

    @pytest.mark.parametrize("hardware", table4_configs(),
                             ids=lambda hardware: hardware.name)
    def test_resource_bounds(self, hardware):
        for batch, seq_len in ((8, 128), (32, 512)):
            self._check(hardware, batch, seq_len)

    @staticmethod
    def _check(hardware, batch, seq_len):
        tracer = Tracer()
        result = Orchestrator(hardware).run(
            protein_bert_base(), batch=batch, seq_len=seq_len,
            record_tasks=True, tracer=tracer)

        tracks = defaultdict(list)
        for span in tracer.finished_spans():
            if span.category in ("exec", "stream", "host", "task"):
                tracks[span.category == "task", span.tid].append(
                    (span.start, span.end))
        assert any(is_thread for is_thread, _ in tracks)
        assert any(not is_thread for is_thread, _ in tracks)
        for track, intervals in tracks.items():
            intervals.sort()
            for (_, previous_end), (start, _) in zip(intervals,
                                                     intervals[1:]):
                assert start >= previous_end, (track, start, previous_end)

        utilizations = (list(result.array_utilization.values())
                        + list(result.channel_utilization.values())
                        + [result.host_utilization])
        assert max(utilizations) <= 1.0 + 1e-12

        busy = defaultdict(float)
        for record in result.task_log:
            busy[record.thread] += record.end - record.start
        assert max(busy.values()) <= result.makespan_seconds
