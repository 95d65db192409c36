"""Alert rules: multi-window multi-burn-rate and simple thresholds.

Two rule classes, both evaluated over every tick of an observed run:

* :class:`BurnRateRule` — the Google-SRE shape: fire when the SLO's
  burn rate exceeds a threshold over a *long* window AND over a *short*
  window simultaneously.  The long window gives the alert statistical
  weight (one bad tick cannot page); the short window makes it reset
  fast once the incident is over (without it, a long window stays
  poisoned and the alert can neither re-fire nor resolve promptly).
  Windows are fractions of the monitoring horizon so one rule set
  scales from millisecond smoke runs to full campaigns;
* :class:`ThresholdRule` — fire while a time series' latest sample at
  or before the tick violates a comparison (shed work observed, queue
  depth above a limit).

Rules are edge-triggered: an :class:`Alert` is appended when the
condition first holds, resolved when it first stops holding, and a new
activation appends a fresh alert — so the alert list *is* the incident
timeline.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

#: Alert severities, mildest first.
TICKET = "ticket"
PAGE = "page"

SEVERITIES = (TICKET, PAGE)

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when an SLO burns its budget too fast in two windows at once.

    Attributes:
        name: rule name (unique within a monitor).
        slo: name of the SLO whose burn rate is evaluated.
        severity: :data:`PAGE` or :data:`TICKET`.
        burn_threshold: minimum burn rate (in budgets-per-horizon) that
            both windows must exceed.
        long_window_fraction: long window length as a fraction of the
            monitoring horizon.
        short_window_fraction: short window length, likewise; must not
            exceed the long window.
    """

    name: str
    slo: str
    severity: str = PAGE
    burn_threshold: float = 14.4
    long_window_fraction: float = 0.05
    short_window_fraction: float = 0.015

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity '{self.severity}'; "
                             f"choose from {SEVERITIES}")
        if self.burn_threshold <= 0.0:
            raise ValueError("burn_threshold must be positive")
        if not 0.0 < self.short_window_fraction \
                <= self.long_window_fraction:
            raise ValueError("windows must satisfy 0 < short <= long")


@dataclass(frozen=True)
class ThresholdRule:
    """Fire while a series' latest sample violates a comparison."""

    name: str
    series: str
    op: str = ">"
    threshold: float = 0.0
    severity: str = TICKET

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison '{self.op}'; choose "
                             f"from {tuple(_OPS)}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity '{self.severity}'; "
                             f"choose from {SEVERITIES}")

    def violated(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass
class Alert:
    """One rule activation: fired at a tick, resolved when it cleared.

    Attributes:
        rule: the firing rule's name.
        severity: the rule's severity at firing time.
        fired_at: sim-time of the first violating evaluation.
        value: the violating burn rate / series value at firing time.
        slo: the SLO a burn-rate rule watched (None for thresholds).
        resolved_at: sim-time the condition first stopped holding;
            None while still active at end of run.
        peak_value: worst value observed while active.
    """

    rule: str
    severity: str
    fired_at: float
    value: float
    slo: Optional[str] = None
    resolved_at: Optional[float] = None
    peak_value: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.peak_value < self.value:
            self.peak_value = self.value
