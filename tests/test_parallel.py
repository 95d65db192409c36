"""Tests for the parallel sweep engine and shape-keyed memoization."""

import dataclasses
import enum
import re

import pytest

from repro.arch.config import best_perf, most_efficient
from repro.arch.interconnect import make_partition, nvlink
from repro.arch.lut import make_exp_lut, make_gelu_lut
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.space import enumerate_configs
from repro.experiments.figure17 import DEFAULT_BUDGETS
from repro.model.config import protein_bert_base, protein_bert_tiny
from repro.parallel import (
    ShapeCache,
    SweepExecutor,
    cache_stats,
    cached_build_graph,
    cached_schedule,
    clear_caches,
    schedule_cache,
    schedule_key,
    trace_cache,
    trace_key,
)
from repro.proteins.workloads import uniprot_like_workload
from repro.sched.host import HostModel
from repro.sched.orchestrator import Orchestrator
from repro.system.serving import CampaignSimulator
from repro.telemetry import MetricsRegistry, Tracer

FAST_CONFIG = protein_bert_tiny(num_layers=2, hidden_size=128, num_heads=4,
                                intermediate_size=512, max_position=2048)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Isolate every test from cache state left by its neighbours."""
    clear_caches()
    yield
    clear_caches()


def _double(value):
    return value * 2


def _raise(value):
    raise RuntimeError(f"boom {value}")


class TestKeys:
    def test_trace_key_deterministic(self):
        a = trace_key(FAST_CONFIG, 8, 128)
        b = trace_key(FAST_CONFIG, 8, 128)
        assert a == b
        assert a == trace_key(dataclasses.replace(FAST_CONFIG), 8, 128)

    def test_trace_key_sensitive_to_workload_shape(self):
        base = trace_key(FAST_CONFIG, 8, 128)
        assert trace_key(FAST_CONFIG, 8, 256) != base
        assert trace_key(FAST_CONFIG, 4, 128) != base
        assert trace_key(FAST_CONFIG, 8, 128, with_mask=True) != base
        wider = protein_bert_tiny(num_layers=2, hidden_size=256,
                                  num_heads=4, intermediate_size=512,
                                  max_position=2048)
        assert trace_key(wider, 8, 128) != base

    def test_schedule_key_sensitive_to_hardware(self):
        trace = trace_key(FAST_CONFIG, 8, 128)
        host = HostModel()
        base = schedule_key(trace, best_perf(), host)
        assert schedule_key(trace, most_efficient(), host) != base
        assert schedule_key(trace, best_perf().with_threads(4),
                            host) != base
        assert schedule_key(trace, best_perf().with_link(nvlink(3, 0.9)),
                            host) != base
        repartitioned = dataclasses.replace(
            best_perf(), partition=make_partition(3, 2, 1))
        assert schedule_key(trace, repartitioned, host) != base

    def test_schedule_key_sensitive_to_host_and_knobs(self):
        trace = trace_key(FAST_CONFIG, 8, 128)
        hardware = best_perf()
        base = schedule_key(trace, hardware, HostModel())
        assert schedule_key(trace, hardware, HostModel(slots=4)) != base

    def test_content_hash_rejects_unknown_types(self):
        key = schedule_key(trace_key(FAST_CONFIG, 8, 128), [best_perf()],
                           HostModel())
        with pytest.raises(TypeError):
            ShapeCache("t").put(key, 1)

    @staticmethod
    def _assert_value_hashed(value, path):
        if dataclasses.is_dataclass(value):
            assert type(value).__dataclass_params__.frozen, path
            for field in dataclasses.fields(value):
                TestKeys._assert_value_hashed(
                    getattr(value, field.name), f"{path}.{field.name}")
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                TestKeys._assert_value_hashed(item, f"{path}[{index}]")
        else:
            assert value is None or isinstance(
                value, (enum.Enum, str, int, float, bool)), (
                    f"{path}: {type(value).__qualname__}")

    def test_key_components_hash_by_value(self):
        configs = [config for budget in DEFAULT_BUDGETS
                   for config in enumerate_configs(budget)]
        host = HostModel()
        for name, value in (("best_perf", best_perf()),
                            ("protein_bert_base", protein_bert_base()),
                            ("HostModel", host)):
            self._assert_value_hashed(value, name)
        for config in configs:
            self._assert_value_hashed(config, config.name)
        trace = trace_key(protein_bert_base(), 32, 512)
        assert len(configs) == 846
        assert len({schedule_key(trace, config, host)
                    for config in configs}) == 846


class TestShapeCache:
    def test_put_get_and_stats(self):
        cache = ShapeCache("t", capacity=4)
        assert cache.get("k") is None
        cache.put("k", 41)
        assert cache.get("k") == 41
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)

    def test_lru_eviction_order(self):
        cache = ShapeCache("t", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")           # refresh a; b is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.stats.evictions == 1


class TestMemo:
    def test_trace_cached_once(self):
        first = cached_build_graph(FAST_CONFIG, batch=4, seq_len=64)
        second = cached_build_graph(FAST_CONFIG, batch=4, seq_len=64)
        assert first is second
        stats = trace_cache().stats
        assert stats.misses == 1 and stats.hits == 1

    def test_trace_shape_change_misses(self):
        cached_build_graph(FAST_CONFIG, batch=4, seq_len=64)
        cached_build_graph(FAST_CONFIG, batch=4, seq_len=128)
        assert trace_cache().stats.misses == 2

    def test_cached_schedule_matches_orchestrator(self):
        hardware = best_perf()
        direct = Orchestrator(hardware).run(FAST_CONFIG, batch=4,
                                            seq_len=64)
        memoized = cached_schedule(hardware, FAST_CONFIG, batch=4,
                                   seq_len=64)
        assert memoized == direct
        again = cached_schedule(hardware, FAST_CONFIG, batch=4,
                                seq_len=64)
        assert again is memoized


class TestExecutor:
    def test_serial_preserves_order(self):
        executor = SweepExecutor(workers=1)
        assert executor.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert executor.last_mode == "serial"

    def test_parallel_preserves_order(self):
        executor = SweepExecutor(workers=2)
        assert executor.map(_double, list(range(8))) == [
            0, 2, 4, 6, 8, 10, 12, 14]
        assert executor.last_mode in ("process", "serial-fallback")

    def test_single_item_stays_serial(self):
        executor = SweepExecutor(workers=4)
        assert executor.map(_double, [21]) == [42]
        assert executor.last_mode == "serial"

    def test_worker_exception_propagates(self):
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="boom"):
                SweepExecutor(workers=workers).map(_raise, [1, 2])

    def test_telemetry_spans_and_counters(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        SweepExecutor(workers=1).map(_double, [1, 2, 3], tracer=tracer,
                                     metrics=metrics, label="demo")
        task_spans = tracer.spans_on(pid="demo", category="sweep")
        assert len(task_spans) == 4            # 3 tasks + summary
        assert metrics.get("parallel/demo/tasks").value == 3

    def test_resolve_workers(self, monkeypatch):
        assert SweepExecutor.resolve_workers(3) == 3
        assert SweepExecutor.resolve_workers(0) == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert SweepExecutor.resolve_workers(None) == 2
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "junk")
        assert SweepExecutor.resolve_workers(None) == 1
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert SweepExecutor.resolve_workers(None) == 1


class TestSweepParity:
    @pytest.fixture(scope="class")
    def explorer(self):
        return DesignSpaceExplorer(model_config=FAST_CONFIG, batch=8,
                                   seq_len=128)

    def test_workers_and_cache_bit_identical(self, explorer):
        serial = explorer.sweep(limit=12, workers=1)
        parallel = explorer.sweep(limit=12, workers=2)
        warm = explorer.sweep(limit=12, workers=1)
        assert serial == parallel == warm
        assert serial.points == parallel.points
        assert serial.best_perf == parallel.best_perf
        assert (serial.most_power_efficient
                == parallel.most_power_efficient)
        assert serial.most_area_efficient == parallel.most_area_efficient

    def test_empty_space_still_rejected(self, explorer):
        with pytest.raises(ValueError):
            explorer.sweep(limit=0)

    def test_a100_reference_computed_once(self, explorer):
        calls = []
        original = explorer._a100

        class Counting:
            def throughput(self, *args, **kwargs):
                calls.append(1)
                return original.throughput(*args, **kwargs)

        fresh = DesignSpaceExplorer(model_config=FAST_CONFIG, batch=8,
                                    seq_len=128)
        fresh._a100 = Counting()
        first = fresh.a100_runtime()
        second = fresh.a100_runtime()
        assert first == second
        assert len(calls) == 1

    def test_standalone_evaluate_hits_schedule_cache(self, explorer):
        config = best_perf()
        explorer.evaluate(config)
        before = schedule_cache().stats.hits
        point = explorer.evaluate(config)
        assert schedule_cache().stats.hits == before + 1
        assert point.runtime_seconds > 0


class TestLutSharing:
    def test_factories_return_shared_instance(self):
        assert make_gelu_lut() is make_gelu_lut()
        assert make_exp_lut() is make_exp_lut()

    def test_systolic_arrays_share_tables(self):
        from repro.arch.systolic import SystolicArray
        from repro.dataflow.patterns import ArrayType

        first = SystolicArray(16, ArrayType.G)
        second = SystolicArray(32, ArrayType.G)
        assert first._gelu is second._gelu

    def test_tables_are_immutable(self):
        lut = make_gelu_lut()
        table = next(iter(lut._tables.values()))
        with pytest.raises(ValueError):
            table[0] = 1.0


class TestServingMemo:
    def test_repeat_campaign_identical_and_cached(self):
        simulator = CampaignSimulator(model_config=FAST_CONFIG,
                                      max_batch=8)
        workload = uniprot_like_workload(count=24, seed=3)
        first = simulator.run_on_prose(workload)
        hits_before = schedule_cache().stats.hits
        second = simulator.run_on_prose(workload)
        assert first == second
        assert schedule_cache().stats.hits > hits_before


class TestExperimentFanOut:
    @staticmethod
    def _strip_timings(report):
        return re.sub(r"\(\d+\.\ds\)", "(Xs)", report)

    def test_runner_parallel_matches_serial(self):
        from repro.experiments.runner import run_all

        serial = run_all(only=["Table 2", "Table 3"], verbose=False,
                         workers=1)
        parallel = run_all(only=["Table 2", "Table 3"], verbose=False,
                           workers=2)
        assert self._strip_timings(serial) == self._strip_timings(parallel)

    def test_fault_campaign_parallel_matches_serial(self):
        from repro.experiments import fault_campaign

        serial = fault_campaign.run(fault_rates=(0.0, 0.1), seed=11,
                                    library_size=16, workers=1)
        parallel = fault_campaign.run(fault_rates=(0.0, 0.1), seed=11,
                                      library_size=16, workers=2)
        assert serial.serving_reports == parallel.serving_reports
        assert serial.failure_scenario == parallel.failure_scenario


class TestCliSweep:
    def test_sweep_subcommand(self, capsys):
        from repro.cli import main

        assert main(["dse", "--limit", "2", "--workers", "1",
                     "--batch", "4", "--seq-len", "64"]) == 0
        out = capsys.readouterr().out
        assert "evaluated 2 configurations" in out
        assert "cache[schedule]" in out

    def test_global_stats_observable(self):
        cached_build_graph(FAST_CONFIG, batch=2, seq_len=64)
        stats = cache_stats()
        assert stats["trace"].misses >= 1
        metrics = MetricsRegistry()
        from repro.parallel import record_cache_metrics

        record_cache_metrics(metrics, stats)
        assert metrics.get("cache/trace/misses").value >= 1
