"""Exporters: Chrome-trace/Perfetto JSON and the JSONL metrics dump.

The trace export follows the Trace Event Format's JSON-object flavour
(the one ``ui.perfetto.dev`` and ``chrome://tracing`` both load): a
``traceEvents`` list of complete ``"X"`` events with microsecond
timestamps, plus ``"M"`` metadata events naming each process (pid) and
thread (tid), plus ``"i"`` instant events.  Process labels map to
stable integer pids in first-appearance order, track labels likewise to
tids within their process.

Metrics and monitor time-series export as Perfetto *counter tracks*
(``"C"`` events): registry counters and gauges become single-point
counters under a ``metrics`` process, and each
:class:`~repro.telemetry.timeseries.TimeSeries` becomes a stepped
counter under a ``monitor`` process — so capacity dips and queue depths
render as graphs directly above the spans that caused them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry
from .spans import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .timeseries import TimeSeriesStore

#: Microseconds per (simulated or wall) second in exported timestamps.
_MICROS = 1e6


def _json_safe(args: Dict[str, object]) -> Dict[str, object]:
    """Coerce span attributes to JSON-serializable primitives."""
    return {key: (value if isinstance(value, (str, int, float, bool))
                  or value is None else repr(value))
            for key, value in args.items()}


def to_chrome_trace(tracer: Tracer,
                    metadata: Optional[Dict[str, object]] = None,
                    metrics: Optional[MetricsRegistry] = None,
                    series: Optional["TimeSeriesStore"] = None,
                    extra_spans: Optional[Sequence[Span]] = None
                    ) -> Dict[str, object]:
    """Convert a tracer's spans and instants to a Chrome-trace dict.

    Args:
        tracer: the tracer to export (open spans are skipped).
        metadata: optional run description stored under ``otherData``.
        metrics: optional registry; each counter and gauge becomes a
            single-point Perfetto counter track (``"C"`` event) under a
            ``metrics`` process.
        series: optional monitor time-series store; every sample of
            every series becomes a ``"C"`` event under a ``monitor``
            process, rendering as stepped graphs in Perfetto.
        extra_spans: additional synthesized spans exported after the
            tracer's own — used by :mod:`repro.telemetry.analyze` to
            highlight the critical path on its own track.  They follow
            the same pid/tid labelling and must respect the nesting
            rule on their tracks.

    Returns:
        A JSON-serializable dict with ``traceEvents`` ready for
        Perfetto / chrome://tracing.
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    events: List[Dict[str, object]] = []

    def pid_of(label: str) -> int:
        if label not in pids:
            pids[label] = len(pids) + 1
            events.append({"ph": "M", "name": "process_name",
                           "pid": pids[label], "tid": 0,
                           "args": {"name": label}})
        return pids[label]

    def tid_of(pid_label: str, tid_label: str) -> int:
        key = (pid_label, tid_label)
        if key not in tids:
            pid = pid_of(pid_label)
            tid = sum(1 for (p, _t) in tids if p == pid_label) + 1
            tids[key] = tid
            events.append({"ph": "M", "name": "thread_name",
                           "pid": pid, "tid": tid,
                           "args": {"name": tid_label}})
        return tids[key]

    def span_event(span: Span) -> Dict[str, object]:
        return {
            "ph": "X",
            "name": span.name,
            "cat": span.category,
            "ts": span.start * _MICROS,
            "dur": span.duration * _MICROS,
            "pid": pid_of(span.pid),
            "tid": tid_of(span.pid, span.tid),
            "args": _json_safe(dict(span.args, clock=span.clock)),
        }

    for span in tracer.finished_spans():
        events.append(span_event(span))
    for instant in tracer.instants:
        events.append({
            "ph": "i",
            "name": instant.name,
            "cat": instant.category,
            "ts": instant.ts * _MICROS,
            "pid": pid_of(instant.pid),
            "tid": tid_of(instant.pid, instant.tid),
            "s": "t",
            "args": _json_safe(dict(instant.args)),
        })
    if metrics is not None:
        for row in metrics.rows():
            if row.get("type") not in ("counter", "gauge"):
                continue
            events.append({
                "ph": "C",
                "name": str(row["name"]),
                "cat": "metrics",
                "ts": 0.0,
                "pid": pid_of("metrics"),
                "tid": 0,
                "args": {"value": float(row["value"])},
            })
    if series is not None:
        for one_series in series:
            for t, value in one_series.samples():
                events.append({
                    "ph": "C",
                    "name": one_series.name,
                    "cat": "monitor",
                    "ts": t * _MICROS,
                    "pid": pid_of("monitor"),
                    "tid": 0,
                    "args": {"value": value},
                })
    for span in extra_spans or ():
        if span.end is not None:
            events.append(span_event(span))
    return {"traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {})}


def write_chrome_trace(tracer: Tracer, path: str,
                       metadata: Optional[Dict[str, object]] = None,
                       metrics: Optional[MetricsRegistry] = None,
                       series: Optional["TimeSeriesStore"] = None,
                       extra_spans: Optional[Sequence[Span]] = None
                       ) -> Dict[str, object]:
    """Write the Chrome-trace JSON to ``path``; returns the dict."""
    data = to_chrome_trace(tracer, metadata=metadata, metrics=metrics,
                           series=series, extra_spans=extra_spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
    return data


#: Tolerance (µs) for containment checks on exported timestamps.
_NEST_EPSILON_US = 5e-4


def validate_chrome_trace(data: Dict[str, object]) -> Dict[str, int]:
    """Validate an exported trace against the Trace Event Format.

    Checks the JSON-object schema (required keys and types per event
    phase) and, per (pid, tid) track, that complete events are properly
    nested: any two spans on one track either nest or are disjoint.
    Counter events (``"C"``) must carry a non-empty ``args`` object of
    numeric values.

    Returns:
        Summary counts: spans, instants, counters, processes, tracks.

    Raises:
        ValueError: on any schema or nesting violation.
    """
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("trace must be a dict with a traceEvents list")
    trace_events = data["traceEvents"]
    if not isinstance(trace_events, list):
        raise ValueError("traceEvents must be a list")

    spans: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
    counts = {"spans": 0, "instants": 0, "counters": 0, "processes": 0,
              "tracks": 0}
    for index, event in enumerate(trace_events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{index} is not an object")
        phase = event.get("ph")
        if phase not in ("X", "i", "M", "C"):
            raise ValueError(f"event #{index}: unsupported phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"event #{index}: missing string 'name'")
        if phase == "M":
            if event["name"] == "process_name":
                counts["processes"] += 1
            elif event["name"] == "thread_name":
                counts["tracks"] += 1
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"event #{index}: '{key}' must be an int")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event #{index}: bad ts {ts!r}")
        if phase == "i":
            counts["instants"] += 1
            continue
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(
                    f"event #{index}: counter needs a non-empty args "
                    f"object")
            for key, value in args.items():
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool):
                    raise ValueError(
                        f"event #{index}: counter value '{key}' must be "
                        f"numeric, got {value!r}")
            counts["counters"] += 1
            continue
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            raise ValueError(f"event #{index}: bad dur {dur!r}")
        counts["spans"] += 1
        spans.setdefault((event["pid"], event["tid"]), []).append(
            (float(ts), float(ts) + float(dur), event["name"]))

    for (pid, tid), track in spans.items():
        # Sort outermost-first so a stack check finds any partial overlap.
        track.sort(key=lambda item: (item[0], -item[1]))
        stack: List[Tuple[float, float, str]] = []
        for start, end, name in track:
            while stack and stack[-1][1] <= start + _NEST_EPSILON_US:
                stack.pop()
            if stack and end > stack[-1][1] + _NEST_EPSILON_US:
                raise ValueError(
                    f"track pid={pid} tid={tid}: span '{name}' "
                    f"[{start}, {end}] partially overlaps "
                    f"'{stack[-1][2]}' [{stack[-1][0]}, {stack[-1][1]}]")
            stack.append((start, end, name))
    return counts


# -- metrics dump -------------------------------------------------------

def write_metrics_jsonl(registry: MetricsRegistry, path: str) -> None:
    """JSONL dump: one JSON object per metric per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in registry.rows():
            handle.write(json.dumps(row) + "\n")
