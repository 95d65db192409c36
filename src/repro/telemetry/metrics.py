"""Counters, gauges, and fixed-bucket histograms with hierarchical merge.

The registry is deliberately Prometheus-shaped but dependency-free:
counters accumulate, gauges hold the latest value, histograms count
observations into fixed upper-bound buckets and answer percentile
queries by linear interpolation within a bucket.  Registries *merge*:
a per-instance registry folds into a system-level one both under an
``instanceN/`` prefix (preserving the breakdown) and unprefixed
(aggregating), which is how multi-instance and campaign reports roll up.
"""

from __future__ import annotations

import bisect
from functools import reduce
from itertools import repeat
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Default latency buckets (seconds): 100 µs to 10 s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Counter:
    """A monotonically accumulating value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot decrease")
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    Args:
        name: metric name.
        bounds: strictly increasing inclusive upper bucket edges; an
            implicit overflow bucket catches everything above the last
            edge.  An observation exactly equal to an edge lands in
            that edge's bucket.
    """

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        """:meth:`observe` each value in turn, in bulk."""
        values = list(map(float, values))
        if not values:
            return
        counts = self.counts
        for index in map(bisect.bisect_left, repeat(self.bounds), values):
            counts[index] += 1
        self.count += len(values)
        # Left to right from the running total, as repeated `+=` adds.
        self.total = reduce(add, values, self.total)
        low, high = min(values), max(values)
        self.min = low if self.min is None else min(self.min, low)
        self.max = high if self.max is None else max(self.max, high)

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0 <= q <= 100).

        Interpolates linearly inside the containing bucket; the first
        bucket's lower edge is the observed minimum and the overflow
        bucket's upper edge is the observed maximum, so the estimate is
        always inside [min, max] and is *exact* when every observation
        in the containing bucket sits on its upper edge.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            raise ValueError(f"histogram {self.name} is empty")
        assert self.min is not None and self.max is not None
        rank = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = (self.min if index == 0
                         else max(self.bounds[index - 1], self.min))
                upper = (self.max if index == len(self.bounds)
                         else min(self.bounds[index], self.max))
                upper = max(upper, lower)
                fraction = (rank - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self.max  # pragma: no cover - rank <= count always hits

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name}: bucket mismatch "
                f"{self.bounds} vs {other.bounds}")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = (other.min if self.min is None
                        else min(self.min, other.min))
        if other.max is not None:
            self.max = (other.max if self.max is None
                        else max(self.max, other.max))


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named, ordered collection of metrics with get-or-create access.

    Merging is the hierarchy mechanism: fold a child registry in twice,
    once under a prefix (``instance2/sched/dispatches``) to preserve the
    per-shard view and once unprefixed to aggregate.  Counters and
    histograms add; gauges take the child's value (last write wins).
    """

    def __init__(self, name: str = "root") -> None:
        self.name = name
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric '{name}' already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get(name, Histogram, bounds)

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    # -- hierarchy -------------------------------------------------------

    def merge(self, child: "MetricsRegistry",
              prefix: Optional[str] = None) -> None:
        """Fold every metric of ``child`` into this registry.

        Args:
            child: the registry to absorb (left untouched).
            prefix: when given, metrics land under ``prefix/name``;
                when None they merge into the same names (aggregate).
        """
        for name, metric in child._metrics.items():
            target = f"{prefix}/{name}" if prefix else name
            if isinstance(metric, Counter):
                self.counter(target).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(target).set(metric.value)
            else:
                mine = self.histogram(target, metric.bounds)
                mine.merge(metric)

    # -- reporting -------------------------------------------------------

    def rows(self) -> List[Dict[str, object]]:
        """One flat dict per metric, histograms with p50/p95/p99."""
        out: List[Dict[str, object]] = []
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out.append({"name": name, "type": "counter",
                            "value": metric.value})
            elif isinstance(metric, Gauge):
                out.append({"name": name, "type": "gauge",
                            "value": metric.value})
            else:
                row: Dict[str, object] = {
                    "name": name, "type": "histogram",
                    "count": metric.count, "sum": metric.total,
                    "min": metric.min if metric.min is not None else "",
                    "max": metric.max if metric.max is not None else ""}
                for q, label in ((50, "p50"), (95, "p95"), (99, "p99")):
                    row[label] = (metric.percentile(q)
                                  if metric.count else "")
                out.append(row)
        return out
