"""Service-level objectives and error-budget accounting.

An :class:`SLO` is declarative: a name, an objective class, and a target
fraction of *good* events.  The monitor engine feeds each SLO a stream
of weighted good/bad events (a fleet sample tick contributes its
capacity fraction as good and the remainder as bad; a serving batch
contributes one event classified against its latency threshold) and the
:class:`SLOTracker` turns that stream into the two numbers SRE practice
runs on:

* **burn rate** over a window — the windowed error rate divided by the
  budgeted error rate ``1 - target``.  Burn 1.0 spends the budget
  exactly at the horizon; burn 14.4 exhausts a 30-day budget in 2 days,
  which is the classic "page now" threshold;
* **error budget remaining** — 1 minus the fraction of the total
  allowed badness already consumed, floored at zero.

Good/bad totals are sampled into cumulative time series, so windowed
error rates are two step-function reads — no event log replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..telemetry.timeseries import TimeSeries

#: Objective classes.
AVAILABILITY = "availability"
LATENCY = "latency"

OBJECTIVES = (AVAILABILITY, LATENCY)


@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective.

    Attributes:
        name: objective name; instrumentation sites address SLO events
            to it (``availability``, ``latency``).
        objective: :data:`AVAILABILITY` (good = healthy capacity /
            successful work) or :data:`LATENCY` (good = served under
            the threshold).
        target: required good fraction in [0, 1), e.g. 0.999; the error
            budget is ``1 - target``.
        latency_multiple: for latency objectives, the threshold as a
            multiple of the nominal (fault-free) service time — the
            instrumentation site classifies each event against
            ``latency_multiple * nominal``.
        description: one-line summary for dashboards.
    """

    name: str
    objective: str = AVAILABILITY
    target: float = 0.999
    latency_multiple: float = 1.5
    description: str = ""

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective '{self.objective}'; "
                             f"choose from {OBJECTIVES}")
        if not 0.0 <= self.target < 1.0:
            raise ValueError(f"target must be in [0, 1), got "
                             f"{self.target}")
        if self.latency_multiple < 1.0:
            raise ValueError("latency_multiple must be >= 1.0")

    @property
    def budget_fraction(self) -> float:
        """The allowed bad fraction (1 - target)."""
        return 1.0 - self.target


@dataclass(frozen=True)
class BudgetStatus:
    """End-of-run error-budget account for one SLO."""

    slo: str
    target: float
    good: float
    bad: float
    consumed_fraction: float    # of the budget; may exceed 1.0
    remaining_fraction: float   # floored at 0.0
    worst_burn_rate: float

    @property
    def total(self) -> float:
        return self.good + self.bad

class SLOTracker:
    """Accumulates one SLO's good/bad stream and answers burn queries.

    The tracker owns two cumulative time series (sampled by the monitor
    at its tick cadence) plus running totals, and remembers the worst
    burn rate any rule evaluation observed — the headline number for
    reports.
    """

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
        """Append the cumulative totals at sim-time ``t``."""
        self.good_series.append(t, self.good)
        self.bad_series.append(t, self.bad)

    def error_rate(self, start: float, end: float) -> Optional[float]:
        """Windowed bad fraction; None when the window saw no events."""
        good = self.good_series.delta(start, end)
        bad = self.bad_series.delta(start, end)
        total = good + bad
        if total <= 0.0:
            return None
        return bad / total

    def burn_rate(self, start: float, end: float) -> Optional[float]:
        """Windowed error rate over the budgeted rate (None: no events).

        A burn rate of 1.0 consumes the budget exactly over the SLO
        horizon; values above page-worthy thresholds mean the budget
        dies in a fraction of it.
        """
        rate = self.error_rate(start, end)
        if rate is None:
            return None
        burn = rate / self.slo.budget_fraction
        if burn > self.worst_burn_rate:
            self.worst_burn_rate = burn
        return burn

    def budget(self) -> BudgetStatus:
        """The end-of-run (or so-far) budget account."""
        total = self.good + self.bad
        allowed = self.slo.budget_fraction * total
        consumed = self.bad / allowed if allowed > 0.0 else 0.0
        return BudgetStatus(
            slo=self.slo.name, target=self.slo.target, good=self.good,
            bad=self.bad, consumed_fraction=consumed,
            remaining_fraction=max(0.0, 1.0 - consumed),
            worst_burn_rate=self.worst_burn_rate)
