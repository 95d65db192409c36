"""End-to-end benchmark of the ProSE reproduction.

Run from the repository root::

    python3 perf/run.py --workload paper_point --seed 1 [--seconds 10]
    python3 perf/run.py --workload observed --seed 1 --trace 1
    python3 perf/run.py --all --seed 1
    python3 perf/run.py --write-golden

One client drives one workload in a closed loop inside this process
(single-threaded BLAS, serial sweeps, no process pool).  ``--trace 0``
times whole blocks of ops until ``--seconds`` have passed and reports
the end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs a
fixed number of blocks twice, untraced and then with every layer call
wrapped in a wall-clock span (see ``probe.py``), and reports the
per-layer metrics; it also writes the spans as Chrome-trace JSON under
``perf/out/``.  The last line of standard output is the result as one
JSON object.  See ``perf/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

#: Fresh processes each workload's set-up is timed in (this one included).
SETUP_SAMPLES = 3
#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: Failures echoed to standard error per run.
SHOWN_FAILURES = 5
CHILD_TIMEOUT_SECONDS = 170


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_golden() -> Dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


class Tally:
    """Attempts, failures, work and per-op timings of one phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.items = 0.0
        #: (seconds, items) of every op that passed its check.
        self.timings: List[Tuple[float, float]] = []

    @property
    def op_seconds(self) -> float:
        return sum(seconds for seconds, _ in self.timings)

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            print(f"FAILED {label}: {message}", file=sys.stderr)


def execute(op, tally: Tally, probe=None):
    """Run and check one op; returns its result, or None if it failed."""
    from workloads import no_layer

    tally.attempted += 1
    bracket = probe.op(op.label) if probe is not None else nullcontext()
    layer = probe.layer if probe is not None else no_layer
    start = time.perf_counter()
    try:
        with bracket:
            result = op.run(layer)
    except Exception:
        tally.fail(op.label, traceback.format_exc())
        return None
    elapsed = time.perf_counter() - start
    try:
        error = op.check(result)
    except Exception:
        error = traceback.format_exc()
    if error is not None:
        tally.fail(op.label, error)
        return None
    tally.items += op.items
    tally.timings.append((elapsed, op.items))
    return result


def timed_phase(workload, seconds: float) -> Tuple[Tally, float]:
    """Whole blocks until ``seconds`` have passed; returns (tally, wall)."""
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        for op in workload.block(index):
            execute(op, tally)
        index += 1
        if time.perf_counter() - start >= seconds:
            return tally, time.perf_counter() - start


def traced_phase(workload):
    """The workload's traced blocks, untraced and then traced.

    Returns (tally over both passes, probe, untraced op seconds).
    """
    from probe import Probe

    ops = [op for index in range(workload.traced_blocks)
           for op in workload.block(index)]
    tally = Tally()
    for op in ops:
        execute(op, tally)
    untraced = tally.op_seconds
    with Probe() as probe:
        for op in ops:
            result = execute(op, tally, probe)
            if result is None:
                continue
            if op.counts is not None:
                probe.add_counts(op.counts(result))
            if op.twin is not None:
                probe.twin(op.twin.layer, op.twin.into, op.twin.run)
    return tally, probe, untraced


# -- metrics -------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def latencies_ms(workload, tally: Tally) -> List[float]:
    """Per-op latency, or per item where the workload reports it so."""
    if workload.latency_per_item:
        return [seconds / items * 1e3 for seconds, items in tally.timings]
    return [seconds * 1e3 for seconds, _ in tally.timings]


def tail_latency(samples: List[float]) -> Optional[Tuple[float, float, int]]:
    """(percentile, value, samples beyond it) for the highest percentile
    with at least ten samples beyond it; None when there are too few."""
    import numpy as np

    for percentile in TAIL_PERCENTILES:
        beyond = int(len(samples) * (1.0 - percentile / 100.0))
        if beyond >= 10:
            return (percentile, float(np.percentile(samples, percentile)),
                    beyond)
    return None


def end_to_end(workload, tally: Tally, wall: float,
               setup_s: float) -> Dict[str, float]:
    samples = latencies_ms(workload, tally)
    return {
        "throughput": _ratio(tally.items, wall),
        "latency_p50_ms": statistics.median(samples) if samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(probe, untraced_seconds: float) -> Dict[str, float]:
    ms = {layer: seconds * 1e3
          for layer, seconds in probe.self_seconds().items()}
    counts = probe.counts

    def count(name: str) -> float:
        return counts.get(name, 0.0)

    def self_ms(layer: str) -> float:
        return ms.get(layer, 0.0)

    def twin_ratio(observer: str) -> float:
        return _ratio(probe.observed_total.get(observer, 0.0),
                      probe.twin_total.get(observer, 0.0))

    op_ms = sum(seconds for _, seconds, _ in probe.op_tiling()) * 1e3
    schedule_ms = probe.twin_total.get("telemetry", 0.0) * 1e3
    return {
        "trace.self_ms": self_ms("trace"),
        "trace.ops": count("trace.ops"),
        "dataflow.self_ms": self_ms("dataflow"),
        "dataflow.nodes": count("dataflow.nodes"),
        "arch.timing.self_ms": self_ms("arch.timing"),
        "arch.timing.calls": count("arch.timing.calls"),
        "sched.self_ms": self_ms("sched"),
        "sched.dispatches": count("sched.dispatches"),
        "sched.host_us_per_dispatch": _ratio(self_ms("sched") * 1e3,
                                             count("sched.dispatches")),
        "physical.self_ms": self_ms("physical"),
        "parallel.cache.self_ms": self_ms("parallel.cache"),
        "parallel.cache.schedule_hit_ratio": _ratio(
            count("schedule.hits"), count("schedule.lookups")),
        "parallel.cache.trace_hit_ratio": _ratio(
            count("trace.hits"), count("trace.lookups")),
        "dse.self_ms": self_ms("dse"),
        "dse.points": count("dse.points"),
        "system.serving.self_ms": self_ms("system.serving"),
        "system.serving.batches": count("system.serving.batches"),
        "fleet.self_ms": self_ms("fleet"),
        "fleet.runs": count("fleet.runs"),
        "monitor.overhead_ms": self_ms("monitor"),
        "monitor.overhead_ratio": twin_ratio("monitor"),
        "monitor.alerts": count("monitor.alerts"),
        "telemetry.spans": count("telemetry.spans"),
        "telemetry.overhead_ms": self_ms("telemetry"),
        "telemetry.traced_over_untraced": twin_ratio("telemetry"),
        "telemetry.analyze.self_ms": self_ms("telemetry.analyze"),
        "telemetry.analyze.us_per_span": _ratio(
            self_ms("telemetry.analyze") * 1e3,
            count("telemetry.analyze.spans")),
        "telemetry.analyze_over_schedule": _ratio(
            self_ms("telemetry.analyze"), schedule_ms),
        "model.self_ms": self_ms("model"),
        "model.residues": count("model.residues"),
        "arch.functional.self_ms": self_ms("arch.functional"),
        "arch.functional.mac_operations": count(
            "arch.functional.mac_operations"),
        "arch.functional.tiles": count("arch.functional.tiles"),
        "arch.functional.ns_per_mac": _ratio(
            self_ms("arch.functional") * 1e6,
            count("arch.functional.mac_operations")),
        "bench.op_ms": op_ms,
        "bench.residual_ms": self_ms("op"),
        "bench.tracing_overhead": _ratio(op_ms, untraced_seconds * 1e3),
    }


def result_line(tally: Tally, values: Dict[str, float],
                declared: List[Dict]) -> str:
    """The final JSON line: exactly the metrics ``BENCHMARK.json`` declares."""
    metrics = {}
    for entry in declared:
        if entry["name"] not in values:
            raise KeyError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
    return json.dumps({"correct": tally.failed == 0,
                       "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics})


def print_table(values: Dict[str, float], declared: List[Dict]) -> None:
    for entry in declared:
        print(f"  {entry['name']:34s} {values[entry['name']]:14.4f} "
              f"{entry['unit']}")


# -- set-up samples ----------------------------------------------------------------

def setup_samples(args: argparse.Namespace) -> List[float]:
    """Set-up seconds of fresh processes running only the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            stdout=subprocess.PIPE, check=True, text=True,
            timeout=CHILD_TIMEOUT_SECONDS)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


# -- modes ---------------------------------------------------------------------------

def run_workload(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload](args.seed, load_golden())
    workload.setup()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"perf: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        tally, probe, untraced = traced_phase(workload)
        values = per_layer(probe, untraced)
        declared = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        from repro.telemetry import write_chrome_trace

        write_chrome_trace(probe.tracer, str(path), metadata={
            "workload": args.workload, "seed": args.seed})
        print(f"per-layer self time and counts over {tally.attempted // 2} "
              f"traced ops (Chrome trace: {path.relative_to(ROOT)}):")
        print_table(values, declared)
        residual = _ratio(values["bench.residual_ms"], values["bench.op_ms"])
        print(f"  op time covered by layer spans: {1 - residual:.2%}; "
              f"traced/untraced op time: "
              f"{values['bench.tracing_overhead']:.3f}x")
    else:
        tally, wall = timed_phase(workload, args.seconds)
        samples = [setup_s] + setup_samples(args)
        values = end_to_end(workload, tally, wall,
                            statistics.median(samples))
        declared = spec["end_to_end"]
        print(f"{tally.attempted} ops, {tally.items:g} {workload.item}s in "
              f"{wall:.2f} s of timed phase:")
        print_table(values, declared)
        tail = tail_latency(latencies_ms(workload, tally))
        count = len(tally.timings)
        print("  latency_tail_ms                    "
              + (f"{tail[1]:14.4f} ms (p{tail[0]:g}, {tail[2]} of {count} "
                 "samples beyond)" if tail else
                 f"{'n/a':>14s}    ({count} samples)"))
        print("  setup_s samples: "
              + ", ".join(f"{sample:.3f}" for sample in samples))
    print(f"  ops_attempted {tally.attempted}  ops_failed {tally.failed}  "
          f"error_rate {_ratio(tally.failed, tally.attempted):g}")
    print(result_line(tally, values, declared))
    return 0


def run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            timeout=CHILD_TIMEOUT_SECONDS)
        worst = max(worst, done.returncode)
    return worst


def write_golden() -> int:
    from workloads import DseSweep, Observed, PaperPoint

    records = {}
    for key, workload in (("schedule", PaperPoint(0, {})),
                          ("dse", DseSweep(0, {})),
                          ("chaos", Observed(0, {}))):
        workload.setup()
        records[key] = workload.golden_records()
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the ProSE reproduction.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true",
                      help="run every workload, each in its own process")
    mode.add_argument("--write-golden", action="store_true",
                      help="recompute perf/golden.json from this checkout")
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run with per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no ProSE sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    if args.write_golden:
        return write_golden()
    return run_workload(args)


if __name__ == "__main__":
    # Before numpy loads: one BLAS thread, and the program's defaults
    # (no on-disk cache outside the checkout, serial sweeps).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_SWEEP_WORKERS", None)
    sys.exit(main())
