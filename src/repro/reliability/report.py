"""The ReliabilityReport: what operating a faulty system actually cost.

One report type serves both fault-aware layers (the multi-instance
system and the campaign serving loop), so availability/goodput curves
from either can be tabulated side by side.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReliabilityReport:
    """Reliability accounting for one fault-injected run.

    Attributes:
        availability: useful time over total wall-clock — 1.0 means no
            time was lost to faults, recovery, or backoff.
        goodput: successfully completed inferences per second of total
            wall-clock (throughput net of all fault overhead).
        retries: re-executions performed (failed batches, killed
            stragglers, link retransmissions, resharded shards).
        failures: hard failures observed (instances or exhausted
            batches).
        stragglers: batches killed at the straggler deadline and rerun.
        dropped: inferences abandoned after exhausting retries.
        wasted_seconds: wall-clock spent on work that was thrown away
            (partial attempts, detection windows, backoff waits).
        wasted_joules: energy spent beyond the fault-free cost.
    """

    availability: float = 1.0
    goodput: float = 0.0
    retries: int = 0
    failures: int = 0
    stragglers: int = 0
    dropped: int = 0
    wasted_seconds: float = 0.0
    wasted_joules: float = 0.0

    def summary(self) -> str:
        return (f"availability={self.availability:.4f} "
                f"goodput={self.goodput:.1f} inf/s "
                f"retries={self.retries} failures={self.failures} "
                f"stragglers={self.stragglers} dropped={self.dropped} "
                f"wasted={self.wasted_seconds * 1e3:.2f} ms / "
                f"{self.wasted_joules:.2f} J")
