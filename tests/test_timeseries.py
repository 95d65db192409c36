"""Tests for sim-time time series: step reads, deltas, the store."""

import pytest

from repro.telemetry import TimeSeries, TimeSeriesStore


class TestAppend:
    def test_samples_in_order(self):
        series = TimeSeries("s")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert list(series.samples()) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(series) == 2
        assert series.last == 2.0
        assert series.last_time == 1.0

    def test_equal_times_allowed(self):
        series = TimeSeries("s")
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2

    def test_time_regression_raises(self):
        series = TimeSeries("s")
        series.append(1.0, 1.0)
        with pytest.raises(ValueError, match="earlier"):
            series.append(0.5, 2.0)

    def test_capacity_evicts_oldest_and_counts_drops(self):
        series = TimeSeries("s", capacity=3)
        for i in range(5):
            series.append(float(i), float(i * 10))
        assert len(series) == 3
        assert series.dropped == 2
        assert list(series.samples()) == [(2.0, 20.0), (3.0, 30.0),
                                          (4.0, 40.0)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeries("s", capacity=0)


class TestPointQueries:
    def test_value_at_is_a_step_function(self):
        series = TimeSeries("s")
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.value_at(0.5) == 0.0      # before first: default
        assert series.value_at(0.5, default=-1.0) == -1.0
        assert series.value_at(1.0) == 10.0     # exactly on a sample
        assert series.value_at(1.5) == 10.0     # holds until the next
        assert series.value_at(2.0) == 20.0
        assert series.value_at(99.0) == 20.0    # holds past the last

    def test_empty_series(self):
        series = TimeSeries("s")
        assert series.last is None
        assert series.last_time is None
        assert series.value_at(1.0) == 0.0


class TestCumulative:
    def _counter(self):
        series = TimeSeries("c")
        for t, v in [(1.0, 5.0), (2.0, 8.0), (3.0, 8.0), (4.0, 12.0)]:
            series.append(t, v)
        return series

    def test_delta_reads_step_edges(self):
        series = self._counter()
        assert series.delta(1.0, 3.0) == pytest.approx(3.0)
        assert series.delta(2.5, 3.5) == pytest.approx(0.0)

    def test_delta_window_longer_than_run_measures_from_zero(self):
        series = self._counter()
        assert series.delta(-10.0, 10.0) == pytest.approx(12.0)

    def test_delta_end_before_start_raises(self):
        with pytest.raises(ValueError):
            self._counter().delta(3.0, 1.0)


class TestStore:
    def test_get_or_create_and_order(self):
        store = TimeSeriesStore("test")
        store.record("b", 0.0, 1.0)
        store.record("a", 1.0, 2.0)
        store.record("b", 2.0, 3.0)
        assert store.names() == ["b", "a"]  # first-appearance order
        assert len(store) == 2
        assert "a" in store and "missing" not in store
        assert store.get("missing") is None
        assert store.get("b").last == 3.0
        assert [series.name for series in store] == ["b", "a"]

    def test_store_capacity_flows_to_series(self):
        store = TimeSeriesStore("test", capacity=2)
        for i in range(4):
            store.record("s", float(i), float(i))
        assert len(store.get("s")) == 2
        assert store.get("s").dropped == 2
