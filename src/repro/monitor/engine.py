"""The monitor engine: series columns, SLO tracking, rule evaluation.

A :class:`Monitor` is the observability companion a simulator attaches
to a run:

1. before simulating, the simulator calls :meth:`Monitor.begin` with
   the *nominal horizon* (the fault-free makespan), which fixes the
   sample interval and scales every rule's windows;
2. after the run, it hands the whole run over in one
   :meth:`Monitor.observe` call: its tick times, one column over the
   ticks per series, one good and one bad weight column per SLO, and
   the notable instants (fault injected, failure detected) as
   :class:`Mark`\\ s, so the report can state the incident timeline as
   *fault at t, detected at t+d, paged at t+p*.  The serving simulator
   ticks once per batch row, the fleet simulator on a grid of one
   sample interval over its per-step state log.  The monitor
   accumulates each SLO's columns, runs every rule over the ticks,
   edge-triggered, and closes the run into an immutable
   :class:`MonitorReport`;
3. :meth:`MonitorReport.outcome` compresses that report into the tiny
   :class:`SloOutcome` simulators attach to their own report
   dataclasses.

The engine is pure bookkeeping over the simulator's clock: it draws no
randomness and never writes back into the simulation, so enabling it
cannot change any simulated result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    """Time-series + SLO + alerting state for one simulated run.

    Args:
        slos: declarative objectives; burn-rate rules must reference
            them by name.
        rules: burn-rate and threshold rules, evaluated at every tick.
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
        for rule in rules:
            if isinstance(rule, BurnRateRule) and rule.slo not in names:
                raise ValueError(
                    f"rule '{rule.name}' references unknown SLO "
                    f"'{rule.slo}'")
        rule_names = [rule.name for rule in rules]
        if len(set(rule_names)) != len(rule_names):
            raise ValueError("duplicate rule names")
        self.name = name
        self.samples = samples
        self.store = TimeSeriesStore(name)
        self.slos = tuple(slos)
        self.rules = tuple(rules)
        self.horizon_seconds: Optional[float] = None
        self.sample_interval: float = 0.0
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

    def latency_threshold(self, nominal_seconds: float) -> Optional[float]:
        """The latency SLO's good/bad boundary for one nominal time."""
        for slo in self.slos:
            if slo.objective == LATENCY:
                return slo.latency_multiple * nominal_seconds
        return None

    # -- evaluation ------------------------------------------------------

    def observe(self, ticks: Sequence[float],
                series: Mapping[str, Sequence[Optional[float]]],
                events: Mapping[str, Tuple[Sequence[float],
                                           Sequence[float]]],
                marks: Sequence[Mark] = (),
                end_seconds: Optional[float] = None) -> MonitorReport:
        """Evaluate a whole run, handed over as columns over its ticks.

        Args:
            ticks: the sim-times the run is evaluated at, in order.
            series: per signal, one value per tick; None where it has no
                sample (a sparse signal).
            events: per SLO name, the good and the bad event weight at
                each tick (0.0 where none); names no SLO has are ignored.
            marks: labelled instants (fault, detection).
            end_seconds: where the run ended (default: the last tick).

        Every rule runs over every tick, reading only what was sampled
        up to it, and fires edge-triggered.  Returns the report.
        """
        if self.horizon_seconds is None:
            raise ValueError("call begin(horizon) before using the "
                             "monitor")
        if self._report is not None:
            raise ValueError("monitor already observed a run; use a "
                             "fresh Monitor per run")
        none = ([0.0] * len(ticks),) * 2
        trackers = {slo.name: SLOTracker(slo, *events.get(slo.name, none))
                    for slo in self.slos}
        columns: Dict[str, Sequence[Optional[float]]] = {}
        for name, tracker in trackers.items():
            columns[f"slo/{name}/good"] = tracker.good_totals[1:]
            columns[f"slo/{name}/bad"] = tracker.bad_totals[1:]
        columns.update(series)
        self.store.add(ticks, columns)
        burns: Dict[Tuple[str, float], List[Optional[float]]] = {}
        fired = []
        for position, rule in enumerate(self.rules):
            active: Optional[Alert] = None
            for tick, value in enumerate(self._rule_values(
                    rule, ticks, trackers, burns, columns)):
                if value is None:
                    if active is not None:
                        active.resolved_at = ticks[tick]
                        active = None
                elif active is None:
                    active = Alert(rule=rule.name, severity=rule.severity,
                                   fired_at=ticks[tick], value=value,
                                   slo=(rule.slo if isinstance(
                                       rule, BurnRateRule) else None))
                    fired.append((tick, position, active))
                else:
                    active.peak_value = max(active.peak_value, value)
        fired.sort(key=lambda entry: entry[:2])
        self._report = MonitorReport(
            name=self.name, horizon_seconds=self.horizon_seconds,
            end_seconds=(end_seconds if end_seconds is not None
                         else ticks[-1] if ticks else 0.0),
            ticks=len(ticks), sample_interval=self.sample_interval,
            alerts=tuple(alert for _, _, alert in fired),
            budgets=tuple(tracker.budget()
                          for tracker in trackers.values()),
            marks=tuple(marks))
        return self._report

    def _rule_values(self, rule: AlertRule, ticks: Sequence[float],
                     trackers: Mapping[str, SLOTracker],
                     burns: Dict[Tuple[str, float], List[Optional[float]]],
                     columns: Mapping[str, Sequence[Optional[float]]]
                     ) -> List[Optional[float]]:
        """The violating value at each tick, or None where quiet; rules
        sharing an (SLO, window fraction) share its pass in ``burns``."""
        if isinstance(rule, BurnRateRule):
            window_burns = []
            for fraction in (rule.long_window_fraction,
                             rule.short_window_fraction):
                key = (rule.slo, fraction)
                if key not in burns:
                    burns[key] = trackers[rule.slo].burn_rates(
                        ticks, fraction * self.horizon_seconds)
                window_burns.append(burns[key])
            threshold = rule.burn_threshold
            return [max(long_burn, short_burn)
                    if long_burn is not None and short_burn is not None
                    and long_burn >= threshold and short_burn >= threshold
                    else None
                    for long_burn, short_burn in zip(*window_burns)]
        values: List[Optional[float]] = []
        last = None
        violated = rule.violated
        for value in columns.get(rule.series, ()):
            if value is not None:
                last = value
            values.append(last if last is not None and violated(last)
                          else None)
        return values or [None] * len(ticks)

    # -- reporting -------------------------------------------------------

    def report(self) -> MonitorReport:
        """The run's report (an empty run's if nothing was observed)."""
        if self._report is None:
            return self.observe((), {}, {})
        return self._report


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


def serving_monitor() -> Monitor:
    """A monitor preconfigured for the serving campaign simulator; it
    ticks once per batch row, so it takes no sample count."""
    return Monitor(slos=serving_slos(), rules=serving_rules(),
                   name="serving")
