"""Tests for sim-time time series: columns, step reads, the store, and
the cumulative SLO columns burn-rate windows read."""

import pytest

from repro.monitor import SLO, SLOTracker
from repro.telemetry import TimeSeries, TimeSeriesStore


class TestAppend:
    """A series holds its samples as whole columns; the store takes a
    run's columns at once."""

    def test_samples_in_order(self):
        series = TimeSeries("s", [0.0, 1.0], [1.0, 2.0])
        assert list(series.samples()) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(series) == 2
        assert series.last == 2.0
        assert series.last_time == 1.0

    def test_equal_times_allowed(self):
        series = TimeSeries("s", [1.0, 1.0], [1.0, 2.0])
        assert len(series) == 2

    def test_time_regression_raises(self):
        store = TimeSeriesStore()
        with pytest.raises(ValueError, match="t=0.5 is earlier"):
            store.add([0.0, 1.0, 0.5], {"s": [1.0, 1.0, 2.0]})
        assert len(store) == 0

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="'s' has 1 values for 2"):
            TimeSeriesStore().add([0.0, 1.0], {"s": [1.0]})


class TestPointQueries:
    def test_value_at_is_a_step_function(self):
        series = TimeSeries("s", [1.0, 2.0], [10.0, 20.0])
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
    """Burn-rate windows read an SLO's cumulative good/bad columns."""

    TIMES = [1.0, 2.0, 3.0, 4.0]

    def _tracker(self):
        # No event at t=3; a 0.5 target budgets half the events as bad.
        return SLOTracker(SLO(name="a", target=0.5),
                          good=[5.0, 3.0, 0.0, 8.0], bad=[5.0, 3.0, 0.0, 4.0])

    def test_delta_reads_step_edges(self):
        tracker = self._tracker()
        assert tracker.good_totals == [0.0, 5.0, 8.0, 8.0, 16.0]
        assert tracker.bad_totals == [0.0, 5.0, 8.0, 8.0, 12.0]
        # (t - 2, t]: at t=3 the window starts on the tick at 1.0, so it
        # holds bad 3 of 6; at t=4, bad 4 of 12.
        assert tracker.burn_rates(self.TIMES, 2.0) == [
            1.0, 1.0, 1.0, pytest.approx(2 * 4.0 / 12.0)]
        # A window (t - 0.5, t] holds only its own tick's events.
        assert tracker.burn_rates(self.TIMES, 0.5)[2] is None
        assert tracker.worst_burn_rate == 1.0

    def test_delta_window_longer_than_run_measures_from_zero(self):
        tracker = self._tracker()
        burns = tracker.burn_rates(self.TIMES, 10.0)
        assert burns[-1] == pytest.approx(2 * 12.0 / 28.0)
        budget = tracker.budget()
        assert (budget.good, budget.bad) == (16.0, 12.0)

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError, match="non-negative"):
            SLOTracker(SLO(name="a"), good=[1.0], bad=[-1.0])


class TestStore:
    def test_get_or_create_and_order(self):
        store = TimeSeriesStore("test")
        store.add([0.0, 1.0, 2.0], {"c": [None, None, 4.0],
                                    "a": [None, 2.0, None],
                                    "b": [1.0, None, 3.0],
                                    "empty": [None, None, None]})
        # First-sample order; a column without samples stores nothing.
        assert store.names() == ["b", "a", "c"]
        assert list(store.get("a").samples()) == [(1.0, 2.0)]
        assert list(store.get("b").samples()) == [(0.0, 1.0), (2.0, 3.0)]
        store.add([3.0], {"d": [0.0]})
        assert store.names() == ["b", "a", "c", "d"]
        assert len(store) == 4
        assert "a" in store and "missing" not in store
        assert store.get("missing") is None
        assert store.get("b").last == 3.0
        assert [series.name for series in store] == ["b", "a", "c", "d"]

    def test_a_series_is_stored_once(self):
        store = TimeSeriesStore("test")
        store.add([0.0], {"s": [1.0]})
        with pytest.raises(ValueError, match="already stored"):
            store.add([1.0], {"t": [1.0], "s": [2.0]})
        assert store.names() == ["s"]
