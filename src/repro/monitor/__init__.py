"""Monitoring: sim-time SLOs, error budgets, burn-rate alerts.

Sits on top of :mod:`repro.telemetry.timeseries` and plugs into the
fleet and serving simulators through an optional ``monitor=`` parameter
(mirroring ``tracer=``/``metrics=``): pass ``None`` and every simulated
number stays bit-identical; pass a :class:`Monitor` and the run also
produces a deterministic alert timeline, per-SLO error budgets, and an
ASCII dashboard.

Lifecycle: a simulator arms the monitor before it simulates anything
and, after the run, hands it the run's record as columns over its
ticks in one :meth:`Monitor.observe` call: the serving simulator ticks
once per batch row, the fleet simulator once per sample interval over
its per-step state log.

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
