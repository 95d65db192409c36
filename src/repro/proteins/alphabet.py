"""Amino-acid alphabet and token vocabulary for Protein BERT models.

A Protein BERT model tokenizes a protein sequence one amino acid per token
(paper Section 2.1, Figure 2).  The vocabulary follows the TAPE convention:
the 20 standard amino acids, the 5 ambiguous/non-standard codes that appear
in real sequence databases (B, O, U, X, Z), and the special tokens BERT-style
models require (pad, mask, class, separator, unknown).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: The 20 standard proteinogenic amino acids, one-letter codes.
STANDARD_AMINO_ACIDS: Tuple[str, ...] = (
    "A", "C", "D", "E", "F", "G", "H", "I", "K", "L",
    "M", "N", "P", "Q", "R", "S", "T", "V", "W", "Y",
)

#: Ambiguous / non-standard one-letter codes found in sequence databases.
EXTENDED_AMINO_ACIDS: Tuple[str, ...] = ("B", "O", "U", "X", "Z")

#: Kyte-Doolittle hydropathy index, used by the synthetic binding-energy
#: model in :mod:`repro.binding` as a simple biophysical descriptor.
HYDROPATHY: Dict[str, float] = {
    "A": 1.8, "C": 2.5, "D": -3.5, "E": -3.5, "F": 2.8, "G": -0.4,
    "H": -3.2, "I": 4.5, "K": -3.9, "L": 3.8, "M": 1.9, "N": -3.5,
    "P": -1.6, "Q": -3.5, "R": -4.5, "S": -0.8, "T": -0.7, "V": 4.2,
    "W": -0.9, "Y": -1.3, "B": -3.5, "O": -3.9, "U": 2.5, "X": 0.0,
    "Z": -3.5,
}

#: Approximate residue side-chain charge at physiological pH.
CHARGE: Dict[str, float] = {
    "D": -1.0, "E": -1.0, "K": 1.0, "R": 1.0, "H": 0.1,
}

#: Approximate side-chain volume in cubic angstroms.
VOLUME: Dict[str, float] = {
    "A": 88.6, "C": 108.5, "D": 111.1, "E": 138.4, "F": 189.9, "G": 60.1,
    "H": 153.2, "I": 166.7, "K": 168.6, "L": 166.7, "M": 162.9, "N": 114.1,
    "P": 112.7, "Q": 143.8, "R": 173.4, "S": 89.0, "T": 116.1, "V": 140.0,
    "W": 227.8, "Y": 193.6, "B": 112.6, "O": 170.0, "U": 108.5, "X": 140.0,
    "Z": 141.1,
}


@dataclass(frozen=True)
class Vocabulary:
    """A token vocabulary mapping amino-acid characters to integer ids.

    Follows the TAPE layout: special tokens first, then amino acids.  The
    special tokens mirror what a BERT-style model needs for pre-training and
    downstream fine-tuning tasks.
    """

    pad_token: str = "<pad>"
    mask_token: str = "<mask>"
    cls_token: str = "<cls>"
    sep_token: str = "<sep>"
    unk_token: str = "<unk>"
    tokens: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.tokens:
            specials = (self.pad_token, self.mask_token, self.cls_token,
                        self.sep_token, self.unk_token)
            object.__setattr__(
                self, "tokens",
                specials + STANDARD_AMINO_ACIDS + EXTENDED_AMINO_ACIDS)

    @property
    def size(self) -> int:
        """Number of distinct tokens (30 for the default layout)."""
        return len(self.tokens)

    def index(self, token: str) -> int:
        """Return the integer id for ``token``, or the <unk> id if absent."""
        try:
            return self.tokens.index(token)
        except ValueError:
            return self.tokens.index(self.unk_token)

    @property
    def pad_id(self) -> int:
        return self.tokens.index(self.pad_token)

    @property
    def cls_id(self) -> int:
        return self.tokens.index(self.cls_token)

    @property
    def sep_id(self) -> int:
        return self.tokens.index(self.sep_token)

#: Module-level default vocabulary shared by the tokenizer and the model.
DEFAULT_VOCABULARY = Vocabulary()


def is_valid_sequence(sequence: str) -> bool:
    """Return True when every character is a standard or extended
    amino-acid code."""
    allowed = set(STANDARD_AMINO_ACIDS + EXTENDED_AMINO_ACIDS)
    return bool(sequence) and all(ch in allowed for ch in sequence.upper())
