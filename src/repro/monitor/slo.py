"""Service-level objectives and error-budget accounting.

An :class:`SLO` is declarative: a name, an objective class, and a target
fraction of *good* events.  After a run the monitor engine hands each
SLO one good and one bad weight column over the ticks (a fleet sample
tick contributes its capacity fraction as good and the remainder as
bad; a serving batch contributes one event classified against its
latency threshold) and the :class:`SLOTracker` turns them into the two
numbers SRE practice runs on:

* **burn rate** over a window — the windowed error rate divided by the
  budgeted error rate ``1 - target``.  Burn 1.0 spends the budget
  exactly at the horizon; burn 14.4 exhausts a 30-day budget in 2 days,
  which is the classic "page now" threshold;
* **error budget remaining** — 1 minus the fraction of the total
  allowed badness already consumed, floored at zero.

Good/bad totals are accumulated into cumulative columns, so a windowed
error rate is two reads of each, and every window of one rule is one
pass over the ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import lt
from typing import List, Optional, Sequence

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


class SLOTracker:
    """One SLO's good/bad event columns and the burn queries over them.

    Built from one good and one bad weight per tick (0.0 where none).
    ``good_totals[k]`` and ``bad_totals[k]`` are the totals after ``k``
    ticks, added left to right from 0.0 as a running total would.  The
    tracker remembers the worst burn rate any rule window read.
    """

    def __init__(self, slo: SLO, good: Sequence[float],
                 bad: Sequence[float]) -> None:
        if any(map(lt, chain(good, bad), repeat(0.0))):
            raise ValueError("SLO event weights must be non-negative")
        self.slo = slo
        self.good_totals = list(accumulate(good, initial=0.0))
        self.bad_totals = list(accumulate(bad, initial=0.0))
        self.worst_burn_rate = 0.0

    def burn_rates(self, times: Sequence[float],
                   window: float) -> List[Optional[float]]:
        """The burn rate over ``(t - window, t]`` at each tick time t.

        That is the window's error rate (the bad share of the totals'
        increase since the last tick at or before its start, or since
        0.0) over the budgeted rate; None where it saw no events.  Tick
        *i* reads ticks ``0..i`` only, never a later tick at the same
        time.  Window starts rise with the tick, so one pointer finds
        them all.
        """
        good, bad = self.good_totals, self.bad_totals
        budget = self.slo.budget_fraction
        worst = self.worst_burn_rate
        burns: List[Optional[float]] = []
        before = 0  # ticks so far at or before the window start
        for tick, t in enumerate(times):
            start = t - window
            while before <= tick and times[before] <= start:
                before += 1
            good_delta = good[tick + 1] - good[before]
            bad_delta = bad[tick + 1] - bad[before]
            total = good_delta + bad_delta
            if total <= 0.0:
                burns.append(None)
                continue
            burn = bad_delta / total / budget
            if burn > worst:
                worst = burn
            burns.append(burn)
        self.worst_burn_rate = worst
        return burns

    def budget(self) -> BudgetStatus:
        """The end-of-run budget account."""
        good, bad = self.good_totals[-1], self.bad_totals[-1]
        allowed = self.slo.budget_fraction * (good + bad)
        consumed = bad / allowed if allowed > 0.0 else 0.0
        return BudgetStatus(
            slo=self.slo.name, target=self.slo.target, good=good,
            bad=bad, consumed_fraction=consumed,
            remaining_fraction=max(0.0, 1.0 - consumed),
            worst_burn_rate=self.worst_burn_rate)
