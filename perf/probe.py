"""Wall-clock layer spans for the benchmark's traced run.

The traced run measures the program from outside.  While a :class:`Probe`
is installed, the public entry point of each ``src/repro`` layer is
replaced, wherever a module or class holds it, by a wrapper that records
a wall-clock span on the probe's own :class:`repro.telemetry.Tracer`.
Spans nest through the tracer's open-span stack, so a layer's *self
time* is its spans' duration minus the spans they enclose, and the
benchmark's op spans keep only what no layer covers (the residual).

Two layers cannot be bracketed by a call: the cost of tracing inside the
scheduler and the cost of live monitoring.  For those an op names a
:class:`~workloads.Twin`, the same call without the observer, which the
runner makes right after the op; the difference in self time moves from
the observed layer to the observer, and the twin's own spans and counts
are dropped.

Uninstalling restores every patched attribute, and outside a probe the
program runs its own, unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import Span, Tracer

#: Track the benchmark's spans are recorded on.
PID = "bench"
TID = "layers"

#: Category of the benchmark's own per-op spans.
OP = "op"

Hook = Callable[["Probe", object, Span], None]


def _count(name: str, measure: Callable[[object], float]) -> Hook:
    def hook(probe: "Probe", result: object, span: Span) -> None:
        probe.counts[name] = probe.counts.get(name, 0.0) + measure(result)
    return hook


def _lookup(cache: str) -> Hook:
    """Counts a cache lookup as a hit when it opened no child span: a
    miss always computes through a wrapped layer (the scheduler for a
    schedule, the tracer for a trace)."""
    def hook(probe: "Probe", result: object, span: Span) -> None:
        probe.counts[f"{cache}.lookups"] = (
            probe.counts.get(f"{cache}.lookups", 0.0) + 1)
        if probe.tracer.spans[-1] is span:
            probe.counts[f"{cache}.hits"] = (
                probe.counts.get(f"{cache}.hits", 0.0) + 1)
    return hook


#: (module, attribute or Class.method, layer, counter hook).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("repro.trace.tracer", "trace_model", "trace",
     _count("trace.ops", len)),
    ("repro.dataflow.builder", "build_dataflow_graph", "dataflow",
     _count("dataflow.nodes", len)),
    ("repro.arch.timing", "time_dataflow", "arch.timing",
     _count("arch.timing.calls", lambda result: 1)),
    ("repro.sched.orchestrator", "Orchestrator.run", "sched",
     _count("sched.dispatches", lambda result: result.total_dispatches)),
    ("repro.physical.power", "power_report", "physical", None),
    ("repro.parallel.memo", "cached_schedule", "parallel.cache",
     _lookup("schedule")),
    ("repro.parallel.memo", "cached_build_graph", "parallel.cache",
     _lookup("trace")),
    ("repro.dse.explorer", "DesignSpaceExplorer.sweep", "dse",
     _count("dse.points", lambda result: len(result.points))),
    ("repro.system.serving", "CampaignSimulator.run_on_prose",
     "system.serving", None),
    ("repro.fleet.simulator", "FleetSimulator.run", "fleet",
     _count("fleet.runs", lambda result: 1)),
    ("repro.model.bert", "ProteinBert.embed", "model", None),
    ("repro.model.bert", "EncoderLayer.forward", "model", None),
    ("repro.arch.accelerated_model", "AcceleratedProteinBert.forward",
     "arch.functional", None),
)


class Probe:
    """Installs the layer wrappers and turns their spans into self times.

    Use as a context manager around the traced phase.  ``layer(name)``
    brackets benchmark code that calls a layer the wrappers cannot reach
    (trace analytics, monitor construction, cache clears); ``op(label)``
    brackets one benchmark op.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: Dict[str, float] = {}
        #: Seconds moved between layers by twin runs, keyed by layer.
        self.moved: Dict[str, float] = {}
        #: Total seconds of the observed calls and of their unobserved
        #: twins, keyed by observer (``telemetry``, ``monitor``).
        self.observed_total: Dict[str, float] = {}
        self.twin_total: Dict[str, float] = {}
        #: Latest span of each layer.
        self._last: Dict[str, Span] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Probe":
        for module_name, target, layer, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in target:
                class_name, attribute = target.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute,
                            self._wrap(original, target, layer, hook))
                continue
            original = getattr(module, target)
            wrapper = self._wrap(original, target, layer, hook)
            # Every `from x import f` binding is its own module global.
            for name, loaded in list(sys.modules.items()):
                if (name.split(".")[0] == "repro"
                        and getattr(loaded, target, None) is original):
                    self._patch(loaded, target, wrapper)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _wrap(self, function: Callable, label: str, layer: str,
              hook: Optional[Hook]) -> Callable:
        probe = self

        @functools.wraps(function)
        def wrapper(*args: object, **kwargs: object) -> object:
            with probe.layer(layer, label) as span:
                result = function(*args, **kwargs)
            if hook is not None:
                hook(probe, result, span)
            return result
        return wrapper

    # -- spans --------------------------------------------------------------

    @contextmanager
    def layer(self, layer: str, label: Optional[str] = None
              ) -> Iterator[Span]:
        """A span of ``layer`` around the enclosed block."""
        with self.tracer.span(label or layer, pid=PID, tid=TID,
                              category=layer) as span:
            yield span
        self._last[layer] = span

    def op(self, label: str):
        """A span around one benchmark op."""
        return self.tracer.span(label, pid=PID, tid=TID, category=OP)

    def twin(self, layer: str, into: str, run: Callable[[], object]) -> None:
        """Run the unobserved twin of the last ``layer`` call and move the
        difference in ``layer`` self time to ``into``.

        The twin runs instrumented, so both sides carry the same span
        overhead; its spans and counts are then discarded.
        """
        observed = self._last[layer]
        counts = dict(self.counts)
        mark = len(self.tracer.spans)
        run()
        twin = self._last[layer]
        covered = self._covered()
        overhead = ((observed.duration - covered.get(observed.span_id, 0.0))
                    - (twin.duration - covered.get(twin.span_id, 0.0)))
        self.observed_total[into] = (self.observed_total.get(into, 0.0)
                                     + observed.duration)
        self.twin_total[into] = (self.twin_total.get(into, 0.0)
                                 + twin.duration)
        del self.tracer.spans[mark:]
        self.counts = counts
        self._last[layer] = observed
        self.moved[layer] = self.moved.get(layer, 0.0) - overhead
        self.moved[into] = self.moved.get(into, 0.0) + overhead

    def add_counts(self, counts: Dict[str, float]) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0.0) + value

    # -- attribution --------------------------------------------------------

    def _covered(self) -> Dict[int, float]:
        """Seconds covered by child spans, keyed by parent span id."""
        covered: Dict[int, float] = {}
        for span in self.tracer.spans:
            if span.parent_id is not None:
                covered[span.parent_id] = (covered.get(span.parent_id, 0.0)
                                           + span.duration)
        return covered

    def self_seconds(self) -> Dict[str, float]:
        """Self seconds per layer after twin moves; ``op`` is the residual."""
        covered = self._covered()
        totals: Dict[str, float] = {}
        for span in self.tracer.spans:
            totals[span.category] = (totals.get(span.category, 0.0)
                                     + span.duration
                                     - covered.get(span.span_id, 0.0))
        for layer, seconds in self.moved.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def op_tiling(self) -> List[Tuple[str, float, float]]:
        """(label, op seconds, residual seconds) for every op span."""
        covered = self._covered()
        return [(span.name, span.duration,
                 span.duration - covered.get(span.span_id, 0.0))
                for span in self.tracer.spans if span.category == OP]
