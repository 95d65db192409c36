"""Character-level protein tokenizer.

Mirrors the paper's description: "the model takes in a protein sequence,
represented as an amino acid alphabet, tokenizes sequence into individual
characters per token" (Section 2.1).  The tokenizer adds the BERT-style
``<cls>`` / ``<sep>`` framing and supports padding and truncation so inputs
can be batched for the accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .alphabet import DEFAULT_VOCABULARY, Vocabulary


@dataclass(frozen=True)
class Encoding:
    """The result of tokenizing one protein sequence.

    Attributes:
        ids: integer token ids, shape ``(length,)``.
        attention_mask: 1 for real tokens, 0 for padding, same shape.
    """

    ids: np.ndarray
    attention_mask: np.ndarray


class ProteinTokenizer:
    """Tokenizes amino-acid strings into id arrays for Protein BERT.

    Args:
        vocabulary: token vocabulary; defaults to the TAPE-style 30-token one.
        add_special_tokens: wrap sequences in ``<cls>`` ... ``<sep>``.
    """

    def __init__(self, vocabulary: Optional[Vocabulary] = None,
                 add_special_tokens: bool = True) -> None:
        self.vocabulary = vocabulary or DEFAULT_VOCABULARY
        self.add_special_tokens = add_special_tokens

    def encode(self, sequence: str, max_length: Optional[int] = None,
               pad_to_max_length: bool = False) -> Encoding:
        """Encode one protein string.

        Args:
            sequence: amino-acid string such as ``"MEYQ"``.
            max_length: truncate so the full encoding (including special
                tokens) does not exceed this length.
            pad_to_max_length: right-pad with ``<pad>`` up to ``max_length``.

        Returns:
            An :class:`Encoding` of ids and attention mask.
        """
        vocab = self.vocabulary
        ids: List[int] = [vocab.index(ch) for ch in sequence.upper()]
        if self.add_special_tokens:
            budget = None if max_length is None else max_length - 2
            if budget is not None and len(ids) > budget:
                ids = ids[:budget]
            ids = [vocab.cls_id] + ids + [vocab.sep_id]
        elif max_length is not None and len(ids) > max_length:
            ids = ids[:max_length]

        mask = [1] * len(ids)
        if pad_to_max_length:
            if max_length is None:
                raise ValueError("pad_to_max_length requires max_length")
            pad_count = max_length - len(ids)
            ids.extend([vocab.pad_id] * pad_count)
            mask.extend([0] * pad_count)
        return Encoding(ids=np.asarray(ids, dtype=np.int64),
                        attention_mask=np.asarray(mask, dtype=np.int64))

    def encode_batch(self, sequences: Sequence[str],
                     max_length: Optional[int] = None) -> Encoding:
        """Encode a batch, padding every sequence to a common length.

        Args:
            sequences: protein strings.
            max_length: if given, the common length; otherwise the longest
                encoded sequence in the batch sets it.

        Returns:
            An :class:`Encoding` whose arrays have shape ``(batch, length)``.
        """
        if not sequences:
            raise ValueError("encode_batch requires at least one sequence")
        if max_length is None:
            extra = 2 if self.add_special_tokens else 0
            max_length = max(len(s) for s in sequences) + extra
        encodings = [self.encode(s, max_length=max_length,
                                 pad_to_max_length=True) for s in sequences]
        return Encoding(
            ids=np.stack([e.ids for e in encodings]),
            attention_mask=np.stack([e.attention_mask for e in encodings]))
