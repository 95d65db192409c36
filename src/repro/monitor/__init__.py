"""Monitoring: sim-time SLOs, error budgets, burn-rate alerts.

Sits on top of :mod:`repro.telemetry.timeseries` and plugs into the
fleet and serving simulators through an optional ``monitor=`` parameter
(mirroring ``tracer=``/``metrics=``): pass ``None`` and every simulated
number stays bit-identical; pass a :class:`Monitor` and the run also
produces a deterministic alert timeline, per-SLO error budgets, and an
ASCII dashboard.

Lifecycle: a simulator arms the monitor before it simulates anything.
The serving simulator ticks it once per batch as it runs; the fleet
simulator logs its state once per event-loop step and replays the
ticks, one per sample interval, from that log after the run.

Typical use::

    from repro.monitor import fleet_monitor, render_dashboard

    monitor = fleet_monitor()
    report = simulator.run(batch, scenario=scenario, monitor=monitor)
    print(render_dashboard(monitor))
    print(report.slo.summary())
"""

from .alerts import (
    PAGE,
    SEVERITIES,
    TICKET,
    Alert,
    BurnRateRule,
    ThresholdRule,
)
from .dashboard import (
    budget_gauge,
    format_alert_report,
    render_dashboard,
    sparkline,
)
from .engine import (
    DEFAULT_SAMPLES,
    Mark,
    Monitor,
    MonitorReport,
    SloOutcome,
    fleet_monitor,
    fleet_rules,
    fleet_slos,
    serving_monitor,
    serving_rules,
    serving_slos,
)
from .slo import (
    AVAILABILITY,
    LATENCY,
    OBJECTIVES,
    SLO,
    BudgetStatus,
    SLOTracker,
)

__all__ = [
    "AVAILABILITY",
    "Alert",
    "BudgetStatus",
    "BurnRateRule",
    "DEFAULT_SAMPLES",
    "LATENCY",
    "Mark",
    "Monitor",
    "MonitorReport",
    "OBJECTIVES",
    "PAGE",
    "SEVERITIES",
    "SLO",
    "SLOTracker",
    "SloOutcome",
    "TICKET",
    "ThresholdRule",
    "budget_gauge",
    "fleet_monitor",
    "fleet_rules",
    "fleet_slos",
    "format_alert_report",
    "render_dashboard",
    "serving_monitor",
    "serving_rules",
    "serving_slos",
    "sparkline",
]
