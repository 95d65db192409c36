"""One module per paper artifact: every table and figure of ProSE.

Each module exposes ``run(...)`` returning structured data and
``format_result(...)`` rendering the paper's rows/series as text.  See
``runner.run_all`` for the consolidated report.
"""

from . import (
    ablations,
    binding_study,
    chaos_campaign,
    extensions,
    fault_campaign,
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
    numerics,
    sensitivity,
    table02,
    table03,
    table04,
)
from .runner import EXPERIMENTS, run_all

__all__ = [
    "EXPERIMENTS",
    "ablations",
    "binding_study",
    "chaos_campaign",
    "extensions",
    "fault_campaign",
    "figure01",
    "figure03",
    "figure04",
    "figure08",
    "figure11_12",
    "figure13_14",
    "figure16",
    "figure17",
    "figure18",
    "figure19",
    "figure20",
    "headline",
    "numerics",
    "run_all",
    "sensitivity",
    "table02",
    "table03",
    "table04",
]
