"""Sim-time time-series: ring-buffered samples and step-function reads.

The metrics registry (:mod:`repro.telemetry.metrics`) answers "what
happened over the whole run"; monitoring needs "what was happening at
sim-time *t*" — a value sampled against the simulation clock.  A
:class:`TimeSeries` is a bounded ring buffer of ``(t, value)`` samples
appended in non-decreasing time order (the simulators' clocks only
move forward), so the store stays O(capacity) however long a campaign
runs.

The samples trace out a step function: :meth:`TimeSeries.value_at`
reads it at any time (one bisection), :attr:`TimeSeries.last` is what
threshold rules read, and :meth:`TimeSeries.delta` gives a cumulative
series' increase over a window, which the SLO trackers' burn rates are
built from.  The fleet monitor's samples are written after the run,
replayed from the simulator's per-step state log; the serving
monitor's as the run goes.

Everything is deterministic: no wall clock, no RNG, plain floats.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

#: Default ring-buffer capacity per series.
DEFAULT_CAPACITY = 4096


class TimeSeries:
    """A bounded, time-ordered sample buffer for one monitored signal.

    Args:
        name: series name (slash-hierarchical, like metric names).
        capacity: maximum retained samples; older samples fall off the
            front once exceeded (the ring-buffer bound).
    """

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._times: List[float] = []
        self._values: List[float] = []
        #: Samples evicted by the capacity bound (visibility into loss).
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._times)

    def append(self, t: float, value: float) -> None:
        """Record ``value`` at sim-time ``t`` (non-decreasing)."""
        t = float(t)
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"series '{self.name}': sample at t={t} is earlier than "
                f"the last sample (t={self._times[-1]})")
        self._times.append(t)
        self._values.append(float(value))
        excess = len(self._times) - self.capacity
        if excess > 0:
            del self._times[:excess]
            del self._values[:excess]
            self.dropped += excess

    # -- point queries ---------------------------------------------------

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

    # -- windows ---------------------------------------------------------

    def delta(self, start: float, end: float) -> float:
        """Windowed increase of a cumulative series.

        Reads the step function at both window edges, so a window that
        starts before the first sample measures growth from the implicit
        zero — which is exactly what "window longer than the run" should
        mean for a counter that started at nothing.
        """
        if end < start:
            raise ValueError(f"window end ({end}) before start ({start})")
        return self.value_at(end) - self.value_at(start)


class TimeSeriesStore:
    """Named, ordered collection of time series with get-or-create.

    The sim-time cousin of
    :class:`~repro.telemetry.metrics.MetricsRegistry`: instrumented code
    calls :meth:`record` with a hierarchical name and the store keeps one
    ring buffer per signal, in first-appearance order (deterministic
    iteration for exports and dashboards).
    """

    def __init__(self, name: str = "store",
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.name = name
        self.capacity = capacity
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        existing = self._series.get(name)
        if existing is None:
            existing = TimeSeries(name, capacity=self.capacity)
            self._series[name] = existing
        return existing

    def record(self, name: str, t: float, value: float) -> None:
        self.series(name).append(t, value)

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
