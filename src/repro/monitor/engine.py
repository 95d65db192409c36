"""The monitor engine: sampling, SLO tracking, rule evaluation.

A :class:`Monitor` is the observability companion a simulator attaches
to a run:

1. before simulating, the simulator calls :meth:`Monitor.begin` with
   the *nominal horizon* (the fault-free makespan), which fixes the
   sample interval and scales every rule's windows;
2. at each sample tick it :meth:`record`\\ s instantaneous series values,
   feeds weighted good/bad events to the SLOs (:meth:`slo_event`), and
   calls :meth:`evaluate` — which snapshots the cumulative SLO series
   and runs every alert rule edge-triggered.  Both simulators tick
   after their run, from its record: the serving simulator once per
   batch row, the fleet simulator on a grid of one sample interval
   over its per-step state log;
3. notable instants (fault injected, failure detected) land as
   :meth:`mark`\\ s, so the final report can state the incident timeline
   as *fault at t, detected at t+d, paged at t+p*;
4. :meth:`finalize` closes the run into an immutable
   :class:`MonitorReport`, and :meth:`MonitorReport.outcome` compresses
   that into the tiny :class:`SloOutcome` simulators attach to their
   own report dataclasses.

The engine is pure bookkeeping over the simulator's clock: it draws no
randomness and never writes back into the simulation, so enabling it
cannot change any simulated result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry.timeseries import TimeSeriesStore
from .alerts import (
    PAGE,
    TICKET,
    Alert,
    BurnRateRule,
    ThresholdRule,
)
from .slo import AVAILABILITY, LATENCY, SLO, BudgetStatus, SLOTracker

AlertRule = Union[BurnRateRule, ThresholdRule]

#: Default sample ticks across the nominal horizon.
DEFAULT_SAMPLES = 128


@dataclass(frozen=True)
class Mark:
    """A labelled instant on the monitoring timeline (fault, detection)."""

    at_seconds: float
    label: str
    target: str = ""


@dataclass(frozen=True)
class SloOutcome:
    """Compact service-impact summary attached to simulator reports."""

    alerts: int
    pages: int
    tickets: int
    worst_burn_rate: float
    budget_remaining: float
    fault_seconds: Optional[float] = None
    detection_seconds: Optional[float] = None
    first_page_seconds: Optional[float] = None

    @property
    def page_delay_seconds(self) -> Optional[float]:
        """Fault-to-page latency; None without both endpoints."""
        if self.fault_seconds is None or self.first_page_seconds is None:
            return None
        return self.first_page_seconds - self.fault_seconds

    def summary(self) -> str:
        parts = [f"alerts={self.alerts} (pages={self.pages})",
                 f"worst_burn={self.worst_burn_rate:.1f}",
                 f"budget_left={self.budget_remaining:.1%}"]
        delay = self.page_delay_seconds
        if delay is not None:
            parts.append(f"page_delay={delay * 1e3:.3f} ms")
        return " ".join(parts)


@dataclass(frozen=True)
class MonitorReport:
    """Everything one monitored run concluded, immutable."""

    name: str
    horizon_seconds: float
    end_seconds: float
    ticks: int
    sample_interval: float
    alerts: Tuple[Alert, ...]
    budgets: Tuple[BudgetStatus, ...]
    marks: Tuple[Mark, ...]

    @property
    def pages(self) -> Tuple[Alert, ...]:
        return tuple(a for a in self.alerts if a.severity == PAGE)

    @property
    def tickets(self) -> Tuple[Alert, ...]:
        return tuple(a for a in self.alerts if a.severity == TICKET)

    @property
    def worst_burn_rate(self) -> float:
        return max((b.worst_burn_rate for b in self.budgets), default=0.0)

    @property
    def budget_remaining(self) -> float:
        """Most-consumed SLO's remaining budget (1.0 with no SLOs)."""
        return min((b.remaining_fraction for b in self.budgets),
                   default=1.0)

    def first_mark(self, label: str) -> Optional[Mark]:
        for mark in self.marks:
            if mark.label == label:
                return mark
        return None

    @property
    def fault_seconds(self) -> Optional[float]:
        mark = self.first_mark("fault")
        return mark.at_seconds if mark else None

    @property
    def detection_seconds(self) -> Optional[float]:
        mark = self.first_mark("detection")
        return mark.at_seconds if mark else None

    def first_alert(self, severity: Optional[str] = None
                    ) -> Optional[Alert]:
        for alert in self.alerts:
            if severity is None or alert.severity == severity:
                return alert
        return None

    def outcome(self) -> SloOutcome:
        first_page = self.first_alert(PAGE)
        return SloOutcome(
            alerts=len(self.alerts), pages=len(self.pages),
            tickets=len(self.tickets),
            worst_burn_rate=self.worst_burn_rate,
            budget_remaining=self.budget_remaining,
            fault_seconds=self.fault_seconds,
            detection_seconds=self.detection_seconds,
            first_page_seconds=(first_page.fired_at
                                if first_page else None))


class Monitor:
    """Live time-series + SLO + alerting state for one simulated run.

    Args:
        slos: declarative objectives; burn-rate rules must reference
            them by name.
        rules: burn-rate and threshold rules, evaluated every tick.
        samples: sample ticks across the nominal horizon (the fleet
            simulator keeps ticking at the same interval past it while
            a degraded run is still stepping).
        name: monitor label for dashboards/exports.
    """

    def __init__(self, slos: Sequence[SLO] = (),
                 rules: Sequence[AlertRule] = (),
                 samples: int = DEFAULT_SAMPLES,
                 name: str = "monitor") -> None:
        if samples < 2:
            raise ValueError("samples must be at least 2")
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO names")
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
        for rule in self.rules:
            if isinstance(rule, BurnRateRule) \
                    and rule.slo not in self._trackers:
                raise ValueError(
                    f"rule '{rule.name}' references unknown SLO "
                    f"'{rule.slo}'")
        rule_names = [rule.name for rule in self.rules]
        if len(set(rule_names)) != len(rule_names):
            raise ValueError("duplicate rule names")
        self.horizon_seconds: Optional[float] = None
        self.sample_interval: float = 0.0
        self.alerts: List[Alert] = []
        self.marks: List[Mark] = []
        self.ticks = 0
        self._last_tick = 0.0
        self._active: Dict[str, Alert] = {}
        self._report: Optional[MonitorReport] = None

    # -- lifecycle -------------------------------------------------------

    def begin(self, horizon_seconds: float) -> None:
        """Arm the monitor for a run with the given nominal horizon."""
        if horizon_seconds <= 0.0:
            raise ValueError("horizon must be positive")
        if self.horizon_seconds is not None:
            raise ValueError("monitor already armed; use a fresh Monitor "
                             "per run")
        self.horizon_seconds = horizon_seconds
        self.sample_interval = horizon_seconds / self.samples

    def _require_armed(self) -> float:
        if self.horizon_seconds is None:
            raise ValueError("call begin(horizon) before using the "
                             "monitor")
        return self.horizon_seconds

    # -- observation -----------------------------------------------------

    def record(self, t: float, name: str, value: float) -> None:
        """Sample one series value at sim-time ``t``."""
        self._require_armed()
        self.store.record(name, t, value)

    def slo_event(self, t: float, slo_name: str, good: float = 0.0,
                  bad: float = 0.0) -> None:
        """Feed weighted good/bad events to an SLO (unknown: no-op).

        Unknown names are ignored so instrumentation sites can emit
        their full vocabulary while a monitor tracks only the
        objectives it was configured with.
        """
        self._require_armed()
        tracker = self._trackers.get(slo_name)
        if tracker is not None:
            tracker.add(good=good, bad=bad)

    def mark(self, t: float, label: str, target: str = "") -> None:
        """Pin a labelled instant (fault, detection) on the timeline."""
        self._require_armed()
        self.marks.append(Mark(at_seconds=t, label=label, target=target))

    def latency_threshold(self, nominal_seconds: float) -> Optional[float]:
        """The latency SLO's good/bad boundary for one nominal time."""
        for slo in self.slos:
            if slo.objective == LATENCY:
                return slo.latency_multiple * nominal_seconds
        return None

    # -- evaluation ------------------------------------------------------

    def evaluate(self, t: float) -> Tuple[Alert, ...]:
        """Snapshot SLO series and run every rule at sim-time ``t``.

        Returns the alerts that *fired at this tick* (handy for tests);
        the full list accumulates on :attr:`alerts`.
        """
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
        """The violating value, or None when the rule is quiet."""
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

    # -- reporting -------------------------------------------------------

    def finalize(self, end_seconds: Optional[float] = None
                 ) -> MonitorReport:
        """Close the run into an immutable report (idempotent)."""
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

    def report(self) -> MonitorReport:
        """The finalized report (finalizing at the last tick if needed)."""
        return self.finalize()


# -- presets -------------------------------------------------------------

def fleet_slos() -> Tuple[SLO, ...]:
    """The fleet objective: serve on (nearly) all provisioned capacity."""
    return (SLO(name="availability", objective=AVAILABILITY, target=0.999,
                description="schedulable capacity over provisioned"),)


def fleet_rules() -> Tuple[AlertRule, ...]:
    """Google-SRE-style ladder scaled to one campaign horizon."""
    return (
        BurnRateRule(name="availability-fast-burn", slo="availability",
                     severity=PAGE, burn_threshold=14.4,
                     long_window_fraction=0.05,
                     short_window_fraction=0.015),
        BurnRateRule(name="availability-slow-burn", slo="availability",
                     severity=PAGE, burn_threshold=6.0,
                     long_window_fraction=0.25,
                     short_window_fraction=0.05),
        BurnRateRule(name="availability-budget", slo="availability",
                     severity=TICKET, burn_threshold=1.0,
                     long_window_fraction=1.0,
                     short_window_fraction=0.25),
        ThresholdRule(name="shed-work", series="fleet/shed", op=">",
                      threshold=0.0, severity=TICKET),
        ThresholdRule(name="outage-backlog", series="fleet/backlog",
                      op=">", threshold=0.0, severity=PAGE),
    )


def fleet_monitor(samples: int = DEFAULT_SAMPLES) -> Monitor:
    """A monitor preconfigured for :class:`~repro.fleet.FleetSimulator`."""
    return Monitor(slos=fleet_slos(), rules=fleet_rules(),
                   samples=samples, name="fleet")


def serving_slos() -> Tuple[SLO, ...]:
    """Serving objectives: finish batches, and finish them on time."""
    return (
        SLO(name="latency", objective=LATENCY, target=0.95,
            latency_multiple=1.5,
            description="batch served within 1.5x its nominal time"),
        SLO(name="availability", objective=AVAILABILITY, target=0.999,
            description="sequences served (not dropped)"),
    )


def serving_rules() -> Tuple[AlertRule, ...]:
    return (
        BurnRateRule(name="latency-fast-burn", slo="latency",
                     severity=PAGE, burn_threshold=4.0,
                     long_window_fraction=0.1,
                     short_window_fraction=0.02),
        BurnRateRule(name="latency-budget", slo="latency",
                     severity=TICKET, burn_threshold=1.0,
                     long_window_fraction=1.0,
                     short_window_fraction=0.2),
        BurnRateRule(name="availability-fast-burn", slo="availability",
                     severity=PAGE, burn_threshold=14.4,
                     long_window_fraction=0.1,
                     short_window_fraction=0.02),
        ThresholdRule(name="dropped-sequences", series="serving/dropped",
                      op=">", threshold=0.0, severity=PAGE),
    )


def serving_monitor(samples: int = DEFAULT_SAMPLES) -> Monitor:
    """A monitor preconfigured for the serving campaign simulator."""
    return Monitor(slos=serving_slos(), rules=serving_rules(),
                   samples=samples, name="serving")
