"""Multithreaded orchestration/scheduling simulator (Figure 8)."""

from .host import (
    CPU_ACTIVE_POWER_WATTS,
    CPU_DUTY_CYCLE,
    DRAM_POWER_WATTS,
    HOST_POWER_WATTS,
    HostModel,
)
from .orchestrator import CONTENTION_COEFFICIENT, Orchestrator, ScheduleResult, TaskRecord
from .visualize import render_gantt, thread_timeline, utilization_summary

__all__ = [
    "CONTENTION_COEFFICIENT",
    "CPU_ACTIVE_POWER_WATTS",
    "CPU_DUTY_CYCLE",
    "DRAM_POWER_WATTS",
    "HOST_POWER_WATTS",
    "HostModel",
    "Orchestrator",
    "ScheduleResult",
    "TaskRecord",
    "render_gantt",
    "thread_timeline",
    "utilization_summary",
]
