"""ASCII dashboard: sparklines, budget gauges, and alert timelines.

Pure string rendering over an observed :class:`~.engine.Monitor` —
suitable for terminals, CI logs, and golden-file tests.  Layout:

.. code-block:: text

    monitor 'fleet' — horizon 12.345 ms, 128 ticks, 3 alerts
    series                         last        spark
    fleet/capacity_fraction       0.500        ▇▇▇▇▃▃▃▃▅▆▇▇
    ...
    error budgets
    availability   target 99.900%  [####................]  21.3% left
    alerts
    PAGE    availability-fast-burn  fired 4.321 ms  (+0.104 ms after fault)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .alerts import Alert
from .engine import Monitor, MonitorReport

#: Sparkline glyphs, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Rendered when a sparkline bin precedes the first sample.
SPARK_EMPTY = " "


def _format_seconds(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def sparkline(series, width: int = 48, start: float = 0.0,
              end: Optional[float] = None) -> str:
    """Render a series as a ``width``-character block-glyph strip.

    The timeline ``[start, end]`` is cut into ``width`` equal bins and
    each bin shows the step-function value at its right edge, normalised
    across the series' min/max (a constant series renders flat at the
    middle glyph).  Bins that end before the first sample render blank.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if end is None:
        end = series.last_time if series.last_time is not None else start
    if len(series) == 0 or end <= start:
        return SPARK_EMPTY * width
    values = [value for _t, value in series.samples()]
    lo, hi = min(values), max(values)
    span = hi - lo
    first_time = next(iter(series.samples()))[0]
    cells: List[str] = []
    for i in range(width):
        edge = start + (end - start) * (i + 1) / width
        if edge < first_time:
            cells.append(SPARK_EMPTY)
            continue
        value = series.value_at(edge)
        if span <= 0.0:
            cells.append(SPARK_GLYPHS[3])
            continue
        level = int((value - lo) / span * (len(SPARK_GLYPHS) - 1))
        cells.append(SPARK_GLYPHS[level])
    return "".join(cells)


def budget_gauge(remaining_fraction: float, width: int = 20) -> str:
    """``[####........]`` — filled cells are budget still unspent."""
    if width <= 0:
        raise ValueError("width must be positive")
    remaining = min(1.0, max(0.0, remaining_fraction))
    filled = int(round(remaining * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _alert_line(alert: Alert, fault_seconds: Optional[float]) -> str:
    parts = [f"{alert.severity.upper():<7}", f"{alert.rule:<24}",
             f"fired {_format_seconds(alert.fired_at)}"]
    if fault_seconds is not None and alert.fired_at >= fault_seconds:
        delta = alert.fired_at - fault_seconds
        parts.append(f"(+{_format_seconds(delta)} after fault)")
    parts.append(f"peak {alert.peak_value:.1f}")
    if alert.resolved_at is not None:
        parts.append(f"resolved {_format_seconds(alert.resolved_at)}")
    else:
        parts.append("still active")
    return "  ".join(parts)


def format_alert_report(report: MonitorReport) -> str:
    """The incident timeline: marks, then alerts with fault deltas."""
    lines = [f"alert report — monitor '{report.name}', "
             f"{len(report.alerts)} alert(s) "
             f"({len(report.pages)} page, {len(report.tickets)} ticket)"]
    for mark in report.marks:
        suffix = f" [{mark.target}]" if mark.target else ""
        lines.append(f"  mark    {mark.label:<24}at "
                     f"{_format_seconds(mark.at_seconds)}{suffix}")
    fault = report.fault_seconds
    for alert in report.alerts:
        lines.append("  " + _alert_line(alert, fault))
    if not report.alerts:
        lines.append("  (no alerts fired)")
    return "\n".join(lines)


def render_dashboard(monitor: Monitor, width: int = 48,
                     series_names: Optional[Sequence[str]] = None) -> str:
    """Full-panel dashboard: sparklines, budgets, then the alert log."""
    report = monitor.report()
    end = max(report.end_seconds, report.horizon_seconds)
    names = list(series_names) if series_names is not None \
        else [name for name in monitor.store.names()
              if not name.startswith("slo/")]
    lines = [f"monitor '{report.name}' — horizon "
             f"{_format_seconds(report.horizon_seconds)}, "
             f"{report.ticks} ticks, {len(report.alerts)} alert(s)"]
    if names:
        label_width = max(len(name) for name in names)
        lines.append(f"{'series':<{label_width}}  {'last':>10}  spark")
        for name in names:
            series = monitor.store.get(name)
            if series is None:
                continue
            last = series.last
            shown = f"{last:.3f}" if last is not None else "-"
            lines.append(f"{name:<{label_width}}  {shown:>10}  "
                         f"{sparkline(series, width=width, end=end)}")
    if report.budgets:
        lines.append("error budgets")
        for budget in report.budgets:
            lines.append(
                f"  {budget.slo:<14}target {budget.target:.3%}  "
                f"{budget_gauge(budget.remaining_fraction)}  "
                f"{budget.remaining_fraction:6.1%} left  "
                f"worst burn {budget.worst_burn_rate:.1f}")
    lines.append(format_alert_report(report))
    return "\n".join(lines)
