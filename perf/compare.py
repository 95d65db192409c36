"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage::

    python3 perf/compare.py BASE_DIR/ CHANGE_DIR/

Each directory holds the standard output of ``perf/run.py`` runs, one
file per run.  For every (workload, metric) the table gives each side's
median and quartiles, the share of run pairs the change wins (runs pair
by seed when both sides ran the same seeds, else in file order), and a
verdict:

* ``regression``: the change's median is worse than the base median by
  more than the metric's bound;
* ``unresolved``: the base's own spread (quartile distance over median)
  is wider than the bound, so a regression that size could hide in it,
  unless every change run beats every base run;
* ``improvement``: the change wins at least nine tenths of the pairs and
  the medians differ by more than the base's quartile distance;
* ``no change`` otherwise, and ``-`` for metrics without a bound.

Exits 1 when any metric is a regression or unresolved, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HEADER = "perf: "

Run = Tuple[str, int, str, Dict[str, float]]


def read_run(path: Path) -> Optional[Run]:
    """(group, seed, file name, metric values), or None for a file that
    is not a complete run.  The group is the workload, marked
    ``(traced)`` for a ``--trace 1`` run."""
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    header = next((line for line in lines if line.startswith(HEADER)), None)
    if header is None:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    fields = dict(part.split("=", 1) for part in header[len(HEADER):].split())
    values = {name: float(metric["value"])
              for name, metric in result["metrics"].items()}
    group = fields["workload"] + (" (traced)" if fields["trace"] == "1"
                                  else "")
    return group, int(fields["seed"]), path.name, values


def read_runs(directory: Path) -> Dict[str, List[Run]]:
    runs: Dict[str, List[Run]] = {}
    for path in sorted(directory.iterdir()):
        run = read_run(path) if path.is_file() else None
        if run is not None:
            runs.setdefault(run[0], []).append(run)
    for workload_runs in runs.values():
        workload_runs.sort(key=lambda run: (run[1], run[2]))
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(base: List[Run], change: List[Run]) -> List[Tuple[Run, Run]]:
    base_seeds = [run[1] for run in base]
    change_seeds = [run[1] for run in change]
    if (sorted(base_seeds) == sorted(change_seeds)
            and len(set(base_seeds)) == len(base_seeds)):
        by_seed = {run[1]: run for run in change}
        return [(run, by_seed[run[1]]) for run in base]
    return list(zip(base, change))


def verdict(base: List[float], change: List[float], won: float,
            higher_is_better: bool, bound: Optional[float]) -> str:
    if bound is None:
        return "-"
    q1, median, q3 = quartiles(base)
    change_median = statistics.median(change)
    sign = -1.0 if higher_is_better else 1.0
    worse = sign * (change_median - median) / median if median else 0.0
    spread = (q3 - q1) / median if median else 0.0
    if higher_is_better:
        all_better = min(change) > max(base)
    else:
        all_better = max(change) < min(base)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regression"
    if won >= 0.9 and worse < 0 and abs(change_median - median) > q3 - q1:
        return "improvement"
    return "no change"


def compare(base_dir: Path, change_dir: Path) -> Tuple[List[str], bool]:
    """The report lines, and whether any metric regressed or is
    unresolved."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {entry["name"]: entry
                for entry in spec["end_to_end"] + spec["per_layer"]}
    base_runs, change_runs = read_runs(base_dir), read_runs(change_dir)
    lines = [f"{'workload':21s} {'metric':34s} {'base median [q1, q3]':>32s}"
             f" {'change median [q1, q3]':>32s} {'delta':>8s} {'won':>5s}"
             "  verdict"]
    failing = False
    for workload in sorted(set(base_runs) & set(change_runs)):
        matched = pairs(base_runs[workload], change_runs[workload])
        for name, entry in declared.items():
            base = [run[3][name] for run in base_runs[workload]
                    if name in run[3]]
            change = [run[3][name] for run in change_runs[workload]
                      if name in run[3]]
            if not base or not change:
                continue
            higher = entry["better"] == "higher"
            usable = [(a[3][name], b[3][name]) for a, b in matched
                      if name in a[3] and name in b[3]]
            won = (sum(1 for a, b in usable if (b > a if higher else b < a))
                   / len(usable)) if usable else 0.0
            outcome = verdict(base, change, won, higher, entry.get("bound"))
            failing |= outcome in ("regression", "unresolved")
            b1, bm, b3 = quartiles(base)
            c1, cm, c3 = quartiles(change)
            delta = (cm - bm) / bm if bm else 0.0
            lines.append(
                f"{workload:21s} {name:34s} "
                f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>32s} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>32s} "
                f"{delta:+8.2%} {won:5.0%}  {outcome}")
    return lines, failing


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perf/compare.py BASE_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    lines, failing = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
