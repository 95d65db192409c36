"""Zero-dependency tracing and metrics for the simulated ProSE stack.

Three pieces:

* :class:`Tracer` — nestable spans (simulated time and wall-clock) plus
  instant events, attached to instrumented code through an optional
  ``tracer=`` parameter (``None`` keeps every report bit-identical);
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms that merge hierarchically across instances and campaigns;
* exporters — Chrome-trace/Perfetto JSON (open at ``ui.perfetto.dev``),
  a JSONL metrics dump, and an ASCII timeline renderer;
* :func:`profile` — cProfile-backed hotspot capture that attributes
  per-function self time onto the active span stack and exports next to
  the spans (see :mod:`repro.telemetry.profiling`).

Recording needs nothing beyond the standard library; the trace
analytics (:func:`analyze_trace`) run numpy passes over the recorded
span columns.
"""

from .analyze import (
    AttributionRow,
    CriticalHop,
    CriticalPath,
    PhaseVerdict,
    TraceAnalysis,
    TraceDiff,
    TrackUsage,
    UtilizationReport,
    analyze_trace,
    build_rollup,
    critical_path_spans,
    diff_rollups,
    format_analysis,
    format_critical_path,
    format_diff,
    format_utilization,
    load_trace,
    tracer_from_chrome_trace,
    validate_rollup,
)
from .export import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiling import (
    HotspotEntry,
    ProfileReport,
    format_hotspots,
    profile,
)
from .render import default_glyph, render_tracer, render_tracks
from .spans import SIM_CLOCK, WALL_CLOCK, Instant, Span, Tracer
from .timeseries import TimeSeries, TimeSeriesStore

__all__ = [
    "AttributionRow",
    "Counter",
    "CriticalHop",
    "CriticalPath",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HotspotEntry",
    "Instant",
    "MetricsRegistry",
    "PhaseVerdict",
    "ProfileReport",
    "SIM_CLOCK",
    "Span",
    "TimeSeries",
    "TimeSeriesStore",
    "TraceAnalysis",
    "TraceDiff",
    "TrackUsage",
    "Tracer",
    "UtilizationReport",
    "WALL_CLOCK",
    "analyze_trace",
    "build_rollup",
    "critical_path_spans",
    "default_glyph",
    "diff_rollups",
    "format_analysis",
    "format_critical_path",
    "format_diff",
    "format_hotspots",
    "format_utilization",
    "load_trace",
    "profile",
    "render_tracer",
    "render_tracks",
    "to_chrome_trace",
    "tracer_from_chrome_trace",
    "validate_chrome_trace",
    "validate_rollup",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
