"""Sim-time time series: whole sample columns and step-function reads.

The metrics registry (:mod:`repro.telemetry.metrics`) answers "what
happened over the whole run"; monitoring needs "what was happening at
sim-time *t*" — a value sampled against the simulation clock.  A
:class:`TimeSeries` holds one signal's ``(t, value)`` samples.  Once a
run is over, its monitor hands the :class:`TimeSeriesStore` every
signal at once, as one column per signal over the run's sample times;
the times must not decrease (the simulators' clocks only move
forward), which is checked once per hand-over.

The samples trace out a step function: :meth:`TimeSeries.value_at`
reads it at any time (one bisection), :attr:`TimeSeries.last` is the
final sample, and the dashboard's sparklines are drawn from both.

Everything is deterministic: no wall clock, no RNG, plain floats.
"""

from __future__ import annotations

import bisect
import operator
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


class TimeSeries:
    """A time-ordered sample column for one monitored signal.

    Args:
        name: series name (slash-hierarchical, like metric names).
        times: sample times, non-decreasing.
        values: one value per sample time.

    :meth:`TimeSeriesStore.add` checks both conditions.
    """

    def __init__(self, name: str, times: Sequence[float] = (),
                 values: Sequence[float] = ()) -> None:
        self.name = name
        self._times = times
        self._values = values

    def __len__(self) -> int:
        return len(self._times)

    @property
    def last(self) -> Optional[float]:
        """Most recent sampled value (None when empty)."""
        return self._values[-1] if self._values else None

    @property
    def last_time(self) -> Optional[float]:
        return self._times[-1] if self._times else None

    def value_at(self, t: float, default: float = 0.0) -> float:
        """The step-function value at ``t``: the latest sample with
        sample-time <= ``t``, or ``default`` before the first sample."""
        index = bisect.bisect_right(self._times, t)
        return self._values[index - 1] if index else default

    def samples(self) -> Iterator[Tuple[float, float]]:
        return zip(self._times, self._values)


class TimeSeriesStore:
    """Named, ordered collection of time series.

    The sim-time cousin of
    :class:`~repro.telemetry.metrics.MetricsRegistry`: a monitor hands
    over every signal of a run at once, as one column per signal over
    the run's sample times (:meth:`add`), and the store iterates the
    series in the order of their first sample (deterministic iteration
    for exports and dashboards).
    """

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self._series: Dict[str, TimeSeries] = {}

    def add(self, times: Sequence[float],
            columns: Mapping[str, Sequence[Optional[float]]]) -> None:
        """Store one series per column, sampled at ``times`` (which must
        not decrease); None marks a time where a column has no sample.
        Series are stored in first-sample order, ties in the order
        given; a column with no sample stores nothing."""
        if any(map(operator.gt, times, times[1:])):
            late, early = next(pair for pair in zip(times, times[1:])
                               if pair[1] < pair[0])
            raise ValueError(f"sample at t={early} is earlier than the "
                             f"sample before it (t={late})")
        times = tuple(times)
        sampled = []
        for name, column in columns.items():
            if len(column) != len(times):
                raise ValueError(f"'{name}' has {len(column)} values for "
                                 f"{len(times)} times")
            if name in self._series:
                raise ValueError(f"series '{name}' is already stored")
            if None not in column:
                sampled.append((0, TimeSeries(name, times, list(column))))
                continue
            rows = [row for row, value in enumerate(column)
                    if value is not None]
            if rows:
                sampled.append((rows[0], TimeSeries(
                    name, [times[row] for row in rows],
                    [column[row] for row in rows])))
        for _, series in sorted(sampled, key=lambda entry: entry[0]):
            self._series[series.name] = series

    def get(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)

    def names(self) -> List[str]:
        return list(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series.values())
