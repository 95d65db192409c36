"""Realistic protein workload generators.

The paper's motivation (Sections 1-2): protein inputs are "obligately
long" — 300 to 2000+ tokens — with multi-domain proteins reaching past
2000, and drug-discovery screening runs inference over large variant
libraries.  This module generates workloads with realistic length
statistics (a UniProt-like log-normal length distribution) and screening
campaigns (antibody libraries around a therapeutic scaffold), for
end-to-end throughput studies on mixed-length traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .datasets import FAB_LENGTH
from .sequences import SequenceGenerator

#: Log-normal parameters approximating the UniProt length distribution
#: (median ~300 residues, heavy right tail into the thousands).
UNIPROT_LOG_MEAN = 5.71     # exp(5.71) ≈ 302
UNIPROT_LOG_SIGMA = 0.60


@dataclass(frozen=True)
class WorkloadItem:
    """One inference request: a sequence and its token length."""

    sequence: str
    length: int


@dataclass(frozen=True)
class Workload:
    """A batch of inference requests with length statistics."""

    name: str
    items: Tuple[WorkloadItem, ...]

    def __len__(self) -> int:
        return len(self.items)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([item.length for item in self.items])

    @property
    def mean_length(self) -> float:
        return float(self.lengths.mean())

    @property
    def max_length(self) -> int:
        return int(self.lengths.max())


def uniprot_like_workload(count: int = 256, seed: int = 0,
                          min_length: int = 30,
                          max_length: int = 2048) -> Workload:
    """Sequences with a UniProt-like log-normal length distribution."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    generator = SequenceGenerator(seed=seed + 1)
    items: List[WorkloadItem] = []
    while len(items) < count:
        length = int(rng.lognormal(UNIPROT_LOG_MEAN, UNIPROT_LOG_SIGMA))
        if not min_length <= length <= max_length:
            continue
        items.append(WorkloadItem(sequence=generator.sequence(length),
                                  length=length))
    return Workload(name="uniprot-like", items=tuple(items))


def screening_campaign(library_size: int = 256, seed: int = 3,
                       mutations: int = 6) -> Workload:
    """An antibody screening campaign: Fab variants of one scaffold.

    All sequences share the Fab length (~450 residues), matching the
    Section 2.2 drug-development scenario where a variant library is
    scored against a disease target.
    """
    if library_size <= 0:
        raise ValueError("library_size must be positive")
    generator = SequenceGenerator(seed=seed)
    scaffold = generator.sequence(FAB_LENGTH)
    items = tuple(
        WorkloadItem(sequence=generator.mutate(scaffold, mutations),
                     length=FAB_LENGTH)
        for _ in range(library_size))
    return Workload(name="fab-screening", items=items)


def bucket_batches(workload: Workload, bucket_edges: Sequence[int],
                   max_batch: int = 64) -> List[Tuple[int, int]]:
    """Group a workload into padded (padded_length, batch_size) batches.

    Items are bucketed by the smallest edge that covers them (each batch
    pads to its bucket edge), then split into chunks of ``max_batch``.

    Returns:
        (padded token length, batch size) pairs covering the workload.
    """
    if max_batch <= 0:
        raise ValueError("max_batch must be positive")
    if not workload.items:
        return []
    edges = sorted(bucket_edges)
    if workload.max_length > edges[-1]:
        raise ValueError("largest bucket edge must cover the workload")
    counts: Dict[int, int] = {edge: 0 for edge in edges}
    for item in workload.items:
        edge = next(e for e in edges if item.length <= e)
        counts[edge] += 1
    batches: List[Tuple[int, int]] = []
    for edge in edges:
        remaining = counts[edge]
        while remaining > 0:
            size = min(remaining, max_batch)
            batches.append((edge, size))
            remaining -= size
    return batches
