"""Synthetic protein sequence generation.

The paper profiles Protein BERT on "synthetic protein strings" (Section 2.3)
with lengths from 32 to 2048 tokens.  This module produces such strings with
realistic amino-acid composition (UniProt background frequencies).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .alphabet import STANDARD_AMINO_ACIDS

#: Approximate UniProt/Swiss-Prot background amino-acid frequencies.
BACKGROUND_FREQUENCIES: Dict[str, float] = {
    "A": 0.0826, "C": 0.0139, "D": 0.0546, "E": 0.0672, "F": 0.0387,
    "G": 0.0708, "H": 0.0228, "I": 0.0593, "K": 0.0580, "L": 0.0965,
    "M": 0.0241, "N": 0.0406, "P": 0.0475, "Q": 0.0393, "R": 0.0553,
    "S": 0.0660, "T": 0.0535, "V": 0.0687, "W": 0.0110, "Y": 0.0292,
}


class SequenceGenerator:
    """Generates synthetic protein strings with background composition.

    Args:
        seed: RNG seed; generation is fully deterministic given the seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._alphabet = np.array(STANDARD_AMINO_ACIDS)
        freqs = np.array([BACKGROUND_FREQUENCIES[a]
                          for a in STANDARD_AMINO_ACIDS])
        self._probabilities = freqs / freqs.sum()

    def sequence(self, length: int) -> str:
        """Draw one synthetic protein string of exactly ``length`` residues."""
        if length <= 0:
            raise ValueError("sequence length must be positive")
        draws = self._rng.choice(self._alphabet, size=length,
                                 p=self._probabilities)
        return "".join(draws)

    def batch(self, count: int, length: int) -> List[str]:
        """Draw ``count`` synthetic strings of equal ``length``."""
        return [self.sequence(length) for _ in range(count)]

    def mutate(self, sequence: str, num_mutations: int,
               positions: Optional[Sequence[int]] = None) -> str:
        """Apply ``num_mutations`` random point substitutions.

        Used to derive antibody variants from a scaffold (Section 2.2's 39
        Herceptin Fab variants are point-mutant libraries).

        Args:
            sequence: the scaffold to mutate.
            num_mutations: number of distinct positions to substitute.
            positions: restrict substitutions to these positions (antibody
                libraries mutate the CDR/paratope region); all positions
                when omitted.
        """
        if num_mutations < 0:
            raise ValueError("num_mutations must be non-negative")
        candidates = (list(range(len(sequence))) if positions is None
                      else sorted(set(positions)))
        if num_mutations > len(candidates):
            raise ValueError("cannot mutate more positions than candidates")
        if any(not 0 <= p < len(sequence) for p in candidates):
            raise ValueError("mutation position out of range")
        residues = list(sequence)
        chosen = self._rng.choice(candidates, size=num_mutations,
                                  replace=False)
        for pos in chosen:
            current = residues[pos]
            choices = [a for a in STANDARD_AMINO_ACIDS if a != current]
            residues[pos] = str(self._rng.choice(choices))
        return "".join(residues)
