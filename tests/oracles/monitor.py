"""The per-sample monitor the column monitor was ported from.

A simulator fed this monitor one sample at a time: at each tick it
``record``\\ ed every series value, fed weighted good/bad events to the
SLOs (``slo_event``) and called ``evaluate``, which appended the
cumulative SLO totals and ran every rule edge-triggered, reading each
burn-rate window edge with one bisection.  :class:`repro.monitor.Monitor`
now takes the whole run as columns in one call; the tests feed both the
same ticks and require the same series, alerts, budgets and report.

The declarations (SLOs, rules, alerts, budgets, reports) are the
product's own; only the sampling and evaluation live here.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.monitor import (
    LATENCY,
    SLO,
    Alert,
    BudgetStatus,
    BurnRateRule,
    Mark,
    MonitorReport,
)
from repro.monitor.engine import DEFAULT_SAMPLES, AlertRule


class TimeSeries:
    """Time-ordered ``(t, value)`` samples read as a step function."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, t: float, value: float) -> None:
        t = float(t)
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"series '{self.name}': sample at t={t} is earlier than "
                f"the last sample (t={self._times[-1]})")
        self._times.append(t)
        self._values.append(float(value))

    @property
    def last(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    def value_at(self, t: float, default: float = 0.0) -> float:
        index = bisect.bisect_right(self._times, t)
        return self._values[index - 1] if index else default

    def samples(self) -> Iterator[Tuple[float, float]]:
        return zip(self._times, self._values)

    def delta(self, start: float, end: float) -> float:
        if end < start:
            raise ValueError(f"window end ({end}) before start ({start})")
        return self.value_at(end) - self.value_at(start)


class TimeSeriesStore:
    """Get-or-create series in first-appearance order."""

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        existing = self._series.get(name)
        if existing is None:
            existing = TimeSeries(name)
            self._series[name] = existing
        return existing

    def record(self, name: str, t: float, value: float) -> None:
        self.series(name).append(t, value)

    def get(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)

    def names(self) -> List[str]:
        return list(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series.values())


class SLOTracker:
    """Running good/bad totals, sampled into cumulative series."""

    def __init__(self, slo: SLO, good_series: TimeSeries,
                 bad_series: TimeSeries) -> None:
        self.slo = slo
        self.good_series = good_series
        self.bad_series = bad_series
        self.good = 0.0
        self.bad = 0.0
        self.worst_burn_rate = 0.0

    def add(self, good: float = 0.0, bad: float = 0.0) -> None:
        if good < 0.0 or bad < 0.0:
            raise ValueError("SLO event weights must be non-negative")
        self.good += good
        self.bad += bad

    def sample(self, t: float) -> None:
        self.good_series.append(t, self.good)
        self.bad_series.append(t, self.bad)

    def error_rate(self, start: float, end: float) -> Optional[float]:
        good = self.good_series.delta(start, end)
        bad = self.bad_series.delta(start, end)
        total = good + bad
        if total <= 0.0:
            return None
        return bad / total

    def burn_rate(self, start: float, end: float) -> Optional[float]:
        rate = self.error_rate(start, end)
        if rate is None:
            return None
        burn = rate / self.slo.budget_fraction
        if burn > self.worst_burn_rate:
            self.worst_burn_rate = burn
        return burn

    def budget(self) -> BudgetStatus:
        total = self.good + self.bad
        allowed = self.slo.budget_fraction * total
        consumed = self.bad / allowed if allowed > 0.0 else 0.0
        return BudgetStatus(
            slo=self.slo.name, target=self.slo.target, good=self.good,
            bad=self.bad, consumed_fraction=consumed,
            remaining_fraction=max(0.0, 1.0 - consumed),
            worst_burn_rate=self.worst_burn_rate)


class Monitor:
    """Sample-at-a-time time series, SLO tracking and alerting."""

    def __init__(self, slos: Sequence[SLO] = (),
                 rules: Sequence[AlertRule] = (),
                 samples: int = DEFAULT_SAMPLES,
                 name: str = "monitor") -> None:
        self.name = name
        self.samples = samples
        self.store = TimeSeriesStore(name)
        self.slos = tuple(slos)
        self.rules = tuple(rules)
        self._trackers: Dict[str, SLOTracker] = {
            slo.name: SLOTracker(
                slo, self.store.series(f"slo/{slo.name}/good"),
                self.store.series(f"slo/{slo.name}/bad"))
            for slo in self.slos}
        self.horizon_seconds: Optional[float] = None
        self.sample_interval = 0.0
        self.alerts: List[Alert] = []
        self.marks: List[Mark] = []
        self.ticks = 0
        self._last_tick = 0.0
        self._active: Dict[str, Alert] = {}
        self._report: Optional[MonitorReport] = None

    def begin(self, horizon_seconds: float) -> None:
        self.horizon_seconds = horizon_seconds
        self.sample_interval = horizon_seconds / self.samples

    def _require_armed(self) -> float:
        if self.horizon_seconds is None:
            raise ValueError("call begin(horizon) before using the "
                             "monitor")
        return self.horizon_seconds

    def record(self, t: float, name: str, value: float) -> None:
        self._require_armed()
        self.store.record(name, t, value)

    def slo_event(self, t: float, slo_name: str, good: float = 0.0,
                  bad: float = 0.0) -> None:
        """Feed weighted events to an SLO (unknown names: no-op)."""
        self._require_armed()
        tracker = self._trackers.get(slo_name)
        if tracker is not None:
            tracker.add(good=good, bad=bad)

    def mark(self, t: float, label: str, target: str = "") -> None:
        self._require_armed()
        self.marks.append(Mark(at_seconds=t, label=label, target=target))

    def latency_threshold(self, nominal_seconds: float) -> Optional[float]:
        for slo in self.slos:
            if slo.objective == LATENCY:
                return slo.latency_multiple * nominal_seconds
        return None

    def evaluate(self, t: float) -> Tuple[Alert, ...]:
        """Sample the SLO totals and run every rule at ``t``."""
        horizon = self._require_armed()
        self.ticks += 1
        self._last_tick = t
        for tracker in self._trackers.values():
            tracker.sample(t)
        fired_now: List[Alert] = []
        for rule in self.rules:
            value = self._rule_value(rule, t, horizon)
            violated = value is not None
            active = self._active.get(rule.name)
            if violated and active is None:
                alert = Alert(rule=rule.name, severity=rule.severity,
                              fired_at=t, value=value,
                              slo=(rule.slo if isinstance(
                                  rule, BurnRateRule) else None))
                self.alerts.append(alert)
                self._active[rule.name] = alert
                fired_now.append(alert)
            elif violated and active is not None:
                active.peak_value = max(active.peak_value, value)
            elif not violated and active is not None:
                active.resolved_at = t
                del self._active[rule.name]
        return tuple(fired_now)

    def _rule_value(self, rule: AlertRule, t: float,
                    horizon: float) -> Optional[float]:
        if isinstance(rule, BurnRateRule):
            tracker = self._trackers[rule.slo]
            long_burn = tracker.burn_rate(
                t - rule.long_window_fraction * horizon, t)
            short_burn = tracker.burn_rate(
                t - rule.short_window_fraction * horizon, t)
            if (long_burn is not None and short_burn is not None
                    and long_burn >= rule.burn_threshold
                    and short_burn >= rule.burn_threshold):
                return max(long_burn, short_burn)
            return None
        series = self.store.get(rule.series)
        value = series.last if series is not None else None
        if value is not None and rule.violated(value):
            return value
        return None

    def finalize(self, end_seconds: Optional[float] = None
                 ) -> MonitorReport:
        horizon = self._require_armed()
        if self._report is None:
            self._report = MonitorReport(
                name=self.name, horizon_seconds=horizon,
                end_seconds=(end_seconds if end_seconds is not None
                             else self._last_tick),
                ticks=self.ticks, sample_interval=self.sample_interval,
                alerts=tuple(self.alerts),
                budgets=tuple(tracker.budget()
                              for tracker in self._trackers.values()),
                marks=tuple(self.marks))
        return self._report
