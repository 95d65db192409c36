"""Downstream protein design tasks (Figure 2b)."""

from .evaluation import (
    TaskResult,
    default_task_extractor,
    evaluate_all_tasks,
    evaluate_task,
    format_results,
)
from .tasks import (
    TASK_REGISTRY,
    TaskDataset,
    TaskExample,
    make_task_dataset,
    stability_label,
)

__all__ = [
    "TASK_REGISTRY",
    "TaskDataset",
    "TaskExample",
    "TaskResult",
    "default_task_extractor",
    "evaluate_all_tasks",
    "evaluate_task",
    "format_results",
    "make_task_dataset",
    "stability_label",
]
