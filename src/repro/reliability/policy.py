"""Retry, degradation and heartbeat policies for the fault-aware layers.

Three knobs-objects, all frozen dataclasses so a policy can be shared
between runs without aliasing surprises:

* :class:`RetryPolicy` governs the serving layer — capped exponential
  backoff between batch retries and the straggler deadline multiple
  beyond which a batch is killed and rerun instead of awaited.
* :class:`DegradationPolicy` governs the multi-instance fleet — how
  many survivors re-sharding requires, the brownout floor, and the
  circuit breaker.
* :class:`HeartbeatConfig` is the one definition of failure-detection
  latency (the missed-heartbeat window) plus the warm-up and degraded
  capacity discounts.

:func:`validate_policy_interplay` checks a retry policy against the
heartbeat window once the nominal time scale is known.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Serving-layer retry semantics (capped exponential backoff).

    Attributes:
        max_retries: attempts beyond the first before a batch is dropped.
        backoff_base_seconds: backoff before the first retry.
        backoff_multiplier: growth factor per further retry.
        backoff_cap_seconds: upper bound on any single backoff.
        straggler_deadline_multiple: a batch exceeding this multiple of
            its nominal makespan is killed at the deadline and rerun.
    """

    max_retries: int = 3
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 1.0
    straggler_deadline_multiple: float = 2.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1.0")
        if self.straggler_deadline_multiple < 1.0:
            raise ValueError("straggler_deadline_multiple must be >= 1.0")

    def backoff_seconds(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based), capped."""
        return min(self.backoff_base_seconds
                   * self.backoff_multiplier ** retry_index,
                   self.backoff_cap_seconds)


@dataclass(frozen=True)
class DegradationPolicy:
    """Multi-instance failure handling: reshard, shed, quarantine.

    Detection latency is set by :class:`HeartbeatConfig`.

    Attributes:
        min_survivors: below this many schedulable instances a
            re-shard is an outage: the lost work waits as backlog for a
            recovering instance and is shed if none returns.
        min_capacity_fraction: the brownout floor — when the fleet's
            schedulable capacity drops below this fraction of nominal,
            the scheduler load-sheds rather than queueing re-sharded
            work onto the remnant (0.0 disables shedding).
        shed_fraction: fraction of re-sharded work dropped per brownout
            trigger.
        circuit_breaker_failures: hard failures after which a flapping
            instance is quarantined from scheduling even once it
            reports healthy again (0 disables the breaker).
    """

    min_survivors: int = 1
    min_capacity_fraction: float = 0.0
    shed_fraction: float = 0.5
    circuit_breaker_failures: int = 0

    def __post_init__(self) -> None:
        if self.min_survivors < 1:
            raise ValueError("min_survivors must be at least 1")
        if not 0.0 <= self.min_capacity_fraction <= 1.0:
            raise ValueError("min_capacity_fraction must be in [0, 1]")
        if not 0.0 <= self.shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in [0, 1]")
        if self.circuit_breaker_failures < 0:
            raise ValueError("circuit_breaker_failures must be "
                             "non-negative")

@dataclass(frozen=True)
class HeartbeatConfig:
    """Heartbeat cadence and capacity discounts, in nominal fractions.

    Times are fractions of the *nominal fleet makespan* so one config
    scales from a millisecond tiny-model smoke run to a full
    Protein-BERT-base campaign without retuning.

    Attributes:
        interval_fraction: heartbeat period as a fraction of the
            nominal makespan.
        miss_threshold: consecutive missed heartbeats before an
            instance is declared dead.
        warmup_fraction: time a recovering instance spends warming up
            (cache refill, model reload) before it is healthy again.
        recovering_capacity: capacity factor during warm-up.
        degraded_capacity: default factor for a degraded instance when
            the degradation event names no explicit slowdown.
    """

    interval_fraction: float = 0.02
    miss_threshold: int = 3
    warmup_fraction: float = 0.05
    recovering_capacity: float = 0.5
    degraded_capacity: float = 0.5

    def __post_init__(self) -> None:
        if self.interval_fraction < 0 or self.warmup_fraction < 0:
            raise ValueError("heartbeat fractions must be non-negative")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        for name in ("recovering_capacity", "degraded_capacity"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    def detection_seconds(self, nominal_makespan: float) -> float:
        """Death-to-detection latency: the missed heartbeat window."""
        return (self.interval_fraction * nominal_makespan
                * self.miss_threshold)

    def warmup_seconds(self, nominal_makespan: float) -> float:
        return self.warmup_fraction * nominal_makespan


def validate_policy_interplay(retry: RetryPolicy,
                              heartbeat: HeartbeatConfig,
                              nominal_seconds: float) -> None:
    """Reject retry/heartbeat combinations that cannot make progress.

    Both policies quote times against the *nominal* makespan of the
    work they govern, so contradictions only become visible once that
    scale is known.  Two are rejected:

    * a straggler deadline shorter than the first backoff step — the
      serving layer would kill every straggler, back off for longer
      than the deadline it just enforced, and loop without the retry
      ever being cheaper than the wait it replaced;
    * a failure-detection window (the missed-heartbeat window) longer
      than the straggler deadline — dead instances would be "detected"
      only after the straggler logic has already killed and rerun their
      batches, so every hard failure is double-charged.

    Raises:
        ValueError: naming the offending knobs and the nominal scale.
    """
    if nominal_seconds <= 0:
        raise ValueError(f"nominal_seconds must be positive, "
                         f"got {nominal_seconds}")
    deadline = retry.straggler_deadline_multiple * nominal_seconds
    first_backoff = retry.backoff_seconds(0)
    if deadline < first_backoff:
        raise ValueError(
            f"straggler deadline ({deadline:.6g}s = "
            f"{retry.straggler_deadline_multiple}x nominal "
            f"{nominal_seconds:.6g}s) is shorter than the first backoff "
            f"step ({first_backoff:.6g}s): every straggler kill would be "
            f"followed by a backoff longer than the deadline it "
            f"enforced, retrying forever without progress; lower "
            f"backoff_base_seconds or raise "
            f"straggler_deadline_multiple")
    detection = heartbeat.detection_seconds(nominal_seconds)
    if detection > deadline:
        raise ValueError(
            f"failure detection window ({detection:.6g}s = "
            f"{heartbeat.miss_threshold} missed heartbeats x "
            f"{heartbeat.interval_fraction}x nominal "
            f"{nominal_seconds:.6g}s) exceeds the straggler deadline "
            f"({deadline:.6g}s): hard failures would be handled twice "
            f"(straggler kill, then detection); lower interval_fraction "
            f"or miss_threshold, or raise straggler_deadline_multiple")
