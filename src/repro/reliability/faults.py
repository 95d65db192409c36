"""Seeded, deterministic fault injection for the simulated ProSE stack.

One :class:`FaultModel` instance threads through the fault-aware layers
of the simulator — fleet link transfers, whole-instance failures, and
serving-layer batch attempts — drawing from *independent* seeded
substreams per layer, so the fault sequence one layer sees does not
depend on how many draws another layer made.  The same seed therefore
reproduces the same fault scenario exactly, which is what makes
fault-injection campaigns (and their regression tests) deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Substream label -> index; each stream's RNG is seeded from
#: (seed, index), so the indices fix every seeded fault scenario and must
#: not be renumbered (index 0 is unused).
_STREAMS = {"link": 1, "instance": 2, "serving": 3}


def derive_task_seed(root_seed: int, *key_parts: object) -> int:
    """A per-task seed derived from the task's identity, not RNG state.

    Campaign sweeps fan tasks out over worker processes; any task seed
    that depends on *draw order* (e.g. successive calls on a shared
    generator) silently changes with the worker count.  Hashing the
    root seed together with the task key instead makes each task's
    fault sequence a pure function of *what* the task is — bit-identical
    at ``workers=1`` and ``workers=N``, stable under reordering, and
    decorrelated between tasks that share a root seed.

    Uses SHA-256 of the ``repr`` of the parts (never Python's ``hash``,
    which is salted per process for strings), truncated to 63 bits so
    the result is a valid ``numpy`` seed everywhere.
    """
    text = repr((int(root_seed),) + tuple(key_parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2 ** 63 - 1)


@dataclass(frozen=True)
class FaultRates:
    """Per-event fault probabilities for every layer of the stack.

    All rates default to zero: a default-constructed model is inert and
    every wrapped code path is bit-identical to the fault-free one.

    Attributes:
        link_transient: probability that one host-accelerator dispatch
            experiences a transient link error and must retransmit.
        instance_failure: probability that a ProSE instance hard-fails
            during one multi-instance batch.
        batch_failure: probability that one serving-layer batch attempt
            fails and must be retried.
        straggler: probability that one serving-layer batch straggles.
        straggler_slowdown: execution-time multiplier of a straggling
            batch (stragglers beyond the policy deadline are rerun).
    """

    link_transient: float = 0.0
    instance_failure: float = 0.0
    batch_failure: float = 0.0
    straggler: float = 0.0
    straggler_slowdown: float = 4.0

    def __post_init__(self) -> None:
        for name in ("link_transient", "instance_failure",
                     "batch_failure", "straggler"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], "
                                 f"got {value}")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1.0")

    @property
    def any_nonzero(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in (
            "link_transient", "instance_failure", "batch_failure",
            "straggler"))


class FaultModel:
    """Deterministic fault injector shared by every simulator layer.

    Args:
        rates: per-event fault probabilities (default: all zero, inert).
        seed: root seed; every substream derives from (seed, stream id).
        targeted_instance_failures: instance indices that *always* fail
            in the next multi-instance simulation — the deterministic
            "kill instance k" primitive real fault-injection campaigns
            use to exercise a specific recovery path.
    """

    def __init__(self, rates: Optional[FaultRates] = None, seed: int = 0,
                 targeted_instance_failures: Tuple[int, ...] = ()) -> None:
        self.rates = rates or FaultRates()
        self.seed = seed
        self.targeted_instance_failures = tuple(targeted_instance_failures)
        self._rngs = {}
        self.reset()

    def reset(self) -> None:
        """Rewind every substream.

        After ``reset()`` the model replays the exact same fault sequence,
        so two identical simulations bracket by ``reset()`` produce
        bit-identical outcomes.
        """
        self._rngs = {name: np.random.default_rng([self.seed, index])
                      for name, index in _STREAMS.items()}

    @property
    def active(self) -> bool:
        """True when any fault can actually occur."""
        return self.rates.any_nonzero or bool(self.targeted_instance_failures)

    # -- link faults ------------------------------------------------------

    def link_transients(self, transfers: int) -> int:
        """Transient link errors among ``transfers`` dispatches."""
        if self.rates.link_transient <= 0.0 or transfers <= 0:
            return 0
        return int(self._rngs["link"].binomial(transfers,
                                               self.rates.link_transient))

    # -- instance faults --------------------------------------------------

    def failed_instances(self, count: int) -> Tuple[int, ...]:
        """Indices of instances that hard-fail this batch (sorted)."""
        failed = {i for i in self.targeted_instance_failures if i < count}
        if self.rates.instance_failure > 0.0:
            draws = self._rngs["instance"].random(count)
            failed.update(
                i for i in range(count)
                if draws[i] < self.rates.instance_failure)
        return tuple(sorted(failed))

    def failure_fraction(self) -> float:
        """Fraction of a failed unit's work completed before the fault."""
        return float(self._rngs["instance"].random())

    # -- serving faults ---------------------------------------------------

    def batch_event(self) -> str:
        """Outcome of one serving-layer batch attempt.

        Returns:
            "fail", "straggle", or "ok" — drawn from the serving stream.
        """
        rates = self.rates
        if rates.batch_failure <= 0.0 and rates.straggler <= 0.0:
            return "ok"
        draw = float(self._rngs["serving"].random())
        if draw < rates.batch_failure:
            return "fail"
        if draw < rates.batch_failure + rates.straggler:
            return "straggle"
        return "ok"

    def attempt_fraction(self) -> float:
        """Fraction of a batch attempt elapsed before its failure."""
        return float(self._rngs["serving"].random())
