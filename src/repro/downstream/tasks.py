"""Downstream protein design tasks (paper Figure 2b).

Protein BERT models feed downstream fine-tuning tasks: fluorescence (does
a variant fluoresce, and how brightly), stability (will the protein stay
folded), binding affinity (Section 2.2's star task), and structure-
related prediction.  As with the binding study, the real assay datasets
(TAPE's fluorescence/stability sets) are not redistributable, so each
task ships a synthetic generator whose ground truth is a biophysically
motivated function of sequence — enough signal for the BERT-features →
regularized-linear-model pipeline to demonstrate transfer, which is what
the paper's workflow claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..proteins.alphabet import CHARGE, HYDROPATHY, VOLUME
from ..proteins.sequences import SequenceGenerator


@dataclass(frozen=True)
class TaskExample:
    """One labelled sequence of a downstream task."""

    sequence: str
    label: float


@dataclass(frozen=True)
class TaskDataset:
    """Train/test split for one downstream task."""

    name: str
    train: Tuple[TaskExample, ...]
    test: Tuple[TaskExample, ...]

    @property
    def train_sequences(self) -> List[str]:
        return [example.sequence for example in self.train]

    @property
    def test_sequences(self) -> List[str]:
        return [example.sequence for example in self.test]

    @property
    def train_labels(self) -> np.ndarray:
        return np.array([example.label for example in self.train])

    @property
    def test_labels(self) -> np.ndarray:
        return np.array([example.label for example in self.test])


def _window_mean(values: Sequence[float], width: int) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    kernel = np.ones(width) / width
    return np.convolve(array, kernel, mode="valid")


def make_fluorescence_label(wild_type: str) -> Callable[[str], float]:
    """Synthetic log-fluorescence for variants of a GFP-like wild type.

    Chromophore maturation needs a folded beta-barrel around a *fixed*
    site: the core window is located once on the wild type (its most
    hydrophobic 11-residue window) and every variant is scored there —
    charged or hydrophilic substitutions in the core quench fluorescence.
    """
    wt_hydro = [HYDROPATHY.get(residue, 0.0) for residue in wild_type]
    core_start = int(np.argmax(_window_mean(wt_hydro, 11)))

    def label(sequence: str) -> float:
        core = sequence[core_start:core_start + 11]
        core_charge = reduce(add, (abs(CHARGE.get(residue, 0.0))
                                   for residue in core), 0)
        core_hydro = float(np.mean([HYDROPATHY.get(residue, 0.0)
                                    for residue in core]))
        return 3.0 - 1.2 * core_charge + 0.4 * core_hydro

    return label


def stability_label(sequence: str) -> float:
    """Synthetic folding stability (ΔG-like, higher = more stable).

    Stability grows with hydrophobic burial and side-chain packing, and
    drops with net charge imbalance (charge-charge repulsion).
    """
    hydro = np.array([HYDROPATHY.get(residue, 0.0)
                      for residue in sequence])
    charge = np.array([CHARGE.get(residue, 0.0) for residue in sequence])
    volume = np.array([VOLUME.get(residue, 140.0)
                       for residue in sequence])
    packing = float(np.mean((volume - 140.0) / 90.0) ** 2)
    return float(0.5 * hydro.mean() * len(sequence) / 50.0
                 - 0.05 * abs(charge.sum()) - 2.0 * packing + 1.0)


def _fluorescence_region(wild_type: str) -> List[int]:
    """Mutable positions for the fluorescence library.

    Real GFP landscapes (e.g. Sarkisyan et al., used by TAPE) mutate
    around the chromophore; our synthetic label reads the most
    hydrophobic 11-residue window, so the library mutates that window
    plus flanks.
    """
    hydro = [HYDROPATHY.get(residue, 0.0) for residue in wild_type]
    core_start = int(np.argmax(_window_mean(hydro, 11)))
    low = max(core_start - 5, 0)
    high = min(core_start + 16, len(wild_type))
    return list(range(low, high))


def _whole_sequence(wild_type: str) -> List[int]:
    return list(range(len(wild_type)))


def make_stability_label(wild_type: str) -> Callable[[str], float]:
    """Stability is a global property; the factory ignores the wild type."""
    return stability_label


#: Registered downstream tasks: name -> (label-function factory taking the
#: wild type, sequence length, mutable-region function).
TASK_REGISTRY: Dict[str, Tuple[Callable[[str], Callable[[str], float]], int,
                               Callable[[str], List[int]]]] = {
    "fluorescence": (make_fluorescence_label, 237, _fluorescence_region),
    "stability": (make_stability_label, 45, _whole_sequence),
}


def make_task_dataset(name: str, num_train: int = 96, num_test: int = 48,
                      seed: int = 11, noise_scale: float = 0.25,
                      mutations_per_variant: int = 4) -> TaskDataset:
    """Synthesize one downstream task's variant library.

    Variants derive from a common wild-type scaffold by point mutation,
    as the TAPE fluorescence/stability landscapes do, with Gaussian
    measurement noise scaled to the label spread.
    """
    if name not in TASK_REGISTRY:
        raise ValueError(
            f"unknown task '{name}'; known: {sorted(TASK_REGISTRY)}")
    label_factory, length, region_fn = TASK_REGISTRY[name]
    generator = SequenceGenerator(seed=seed)
    wild_type = generator.sequence(length)
    label_fn = label_factory(wild_type)
    region = region_fn(wild_type)
    rng = np.random.default_rng(seed + 1)

    def build(count: int, offset: str) -> List[TaskExample]:
        examples = []
        raw = []
        for _ in range(count):
            sequence = generator.mutate(wild_type, mutations_per_variant,
                                        positions=region)
            raw.append((sequence, label_fn(sequence)))
        spread = float(np.std([label for _, label in raw])) or 1.0
        noise = rng.normal(0.0, noise_scale * spread, size=count)
        for (sequence, label), epsilon in zip(raw, noise):
            examples.append(TaskExample(sequence=sequence,
                                        label=float(label + epsilon)))
        return examples

    return TaskDataset(name=name, train=tuple(build(num_train, "train")),
                       test=tuple(build(num_test, "test")))
