"""Run every paper experiment and emit a consolidated text report.

``python -m repro.experiments.runner`` regenerates all tables and figures
at a laptop-friendly scale and prints each as a labelled text block — the
source material for EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

from . import (
    ablations,
    alert_timelines,
    binding_study,
    chaos_campaign,
    extensions,
    fault_campaign,
    numerics,
    sensitivity,
    figure01,
    figure03,
    figure04,
    figure08,
    figure11_12,
    figure13_14,
    figure16,
    figure17,
    figure18,
    figure19,
    figure20,
    headline,
    table02,
    table03,
    table04,
)

#: (experiment id, title, run callable, format callable).
EXPERIMENTS: Tuple[Tuple[str, str, Callable, Callable], ...] = (
    ("Figure 1", "Inference power efficiency vs sequence length",
     figure01.run, figure01.format_result),
    ("Figure 3", "Runtime breakdown by operation class",
     figure03.run, figure03.format_result),
    ("Figure 4", "Heterogeneous vs homogeneous runtime vs length",
     figure04.run, figure04.format_result),
    ("Figure 8", "Thread-count orchestration sweep",
     figure08.run, figure08.format_result),
    ("Figures 11/12", "TPUv2 vs ProSE step-by-step operation traces",
     figure11_12.run, figure11_12.format_result),
    ("Figures 13/14", "GELU/Exp LUT truncation windows",
     figure13_14.run, figure13_14.format_result),
    ("Figure 16", "Design-space exploration scatter",
     figure16.run, figure16.format_result),
    ("Figure 17", "PE-count resource sweep",
     figure17.run, figure17.format_result),
    ("Figure 18", "Speedup vs link bandwidth",
     figure18.run, figure18.format_result),
    ("Figure 19", "Power efficiency vs link bandwidth",
     figure19.run, figure19.format_result),
    ("Figure 20", "Empirical roofline",
     figure20.run, figure20.format_result),
    ("Table 2", "Systolic array physical characteristics",
     table02.run, table02.format_result),
    ("Table 3", "DSE configuration space",
     table03.run, table03.format_result),
    ("Table 4", "Select configurations with power/area",
     table04.run, table04.format_result),
    ("Section 2.2", "Protein binding-affinity study",
     binding_study.run, binding_study.format_result),
    ("Ablations", "Input buffer / chaining / LUT window ablations",
     ablations.run, ablations.format_result),
    ("Extensions", "Model zoo / encoder-decoder / downstream tasks",
     extensions.run, extensions.format_result),
    ("Numerics", "bf16 + LUT datapath end-to-end accuracy validation",
     numerics.run, numerics.format_result),
    ("Headline", "Abstract claims: speedup and perf/W vs A100/TPUv3/TPUv2",
     headline.run, headline.format_result),
    ("Sensitivity", "Robustness of conclusions to modeling knobs",
     sensitivity.run, sensitivity.format_result),
    ("Reliability", "Fault-injection availability/goodput campaign",
     fault_campaign.run, fault_campaign.format_result),
    ("Chaos", "Fleet chaos campaign: correlated failures and recovery",
     chaos_campaign.run, chaos_campaign.format_result),
    ("Monitoring", "Alert timelines: fault to detection to page per scenario",
     alert_timelines.run, alert_timelines.format_result),
)


def _execute_experiment(position: int) -> str:
    """Run one experiment by table position and format its report block.

    Module-level (and int-addressed) so the parallel runner can ship it
    to worker processes.
    """
    exp_id, title, run_fn, format_fn = EXPERIMENTS[position]
    started = time.time()
    result = run_fn()
    elapsed = time.time() - started
    return (f"=== {exp_id}: {title} ({elapsed:.1f}s) ===\n"
            f"{format_fn(result)}\n")


def select(only: Optional[List[str]] = None) -> List[int]:
    """Table positions of the named experiments (all if ``only`` is None).

    Raises:
        ValueError: naming the first unknown id and listing the valid ones.
    """
    ids = [exp_id for exp_id, *_rest in EXPERIMENTS]
    unknown = [name for name in only or () if name not in ids]
    if unknown:
        raise ValueError(f"unknown experiment '{unknown[0]}'; choose from: "
                         f"{', '.join(ids)}")
    return [index for index, exp_id in enumerate(ids)
            if only is None or exp_id in only]


def run_all(only: Optional[List[str]] = None, verbose: bool = True,
            workers: Optional[int] = None) -> str:
    """Execute every experiment (or the named subset) and return the report.

    Args:
        only: experiment ids to run (e.g. ``["Figure 18"]``); all if None.
            An unknown id raises ``ValueError`` before anything runs.
        verbose: print each block as it completes.
        workers: fan the experiments out over N processes; ``None`` reads
            ``REPRO_SWEEP_WORKERS`` (default 1, the serial path).  Blocks
            are always assembled and printed in table order.
    """
    from ..parallel.executor import SweepExecutor

    positions = select(only)
    resolved = SweepExecutor.resolve_workers(workers)
    if resolved == 1:
        blocks: List[str] = []
        for position in positions:
            block = _execute_experiment(position)
            blocks.append(block)
            if verbose:
                print(block)
        return "\n".join(blocks)
    executor = SweepExecutor(resolved)
    blocks = executor.map(_execute_experiment, positions,
                          label="experiments")
    if verbose:
        for block in blocks:
            print(block)
    return "\n".join(blocks)


if __name__ == "__main__":
    import sys

    run_all(only=sys.argv[1:] or None)
