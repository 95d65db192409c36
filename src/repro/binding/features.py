"""BERT feature extraction for downstream protein tasks.

The downstream binding model "performs feature extraction via the Protein
BERT model from TAPE": sequences are tokenized, encoded by the BERT stack,
and the final hidden states are mean-pooled over real tokens into one
fixed-width feature vector per protein.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..model.bert import ProteinBert
from ..proteins.tokenizer import ProteinTokenizer


class FeatureExtractor:
    """Extracts pooled Protein BERT embeddings for protein sequences.

    Args:
        model: the encoder to extract with.
        tokenizer: protein tokenizer (defaults to the standard one).
        batch_size: sequences encoded per forward pass.
    """

    def __init__(self, model: ProteinBert,
                 tokenizer: Optional[ProteinTokenizer] = None,
                 batch_size: int = 8) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.tokenizer = tokenizer or ProteinTokenizer()
        self.batch_size = batch_size

    def extract(self, sequences: Sequence[str]) -> np.ndarray:
        """Features of shape ``(len(sequences), hidden_size)``."""
        if not sequences:
            raise ValueError("extract requires at least one sequence")
        chunks: List[np.ndarray] = []
        for start in range(0, len(sequences), self.batch_size):
            batch = sequences[start:start + self.batch_size]
            encoding = self.tokenizer.encode_batch(batch)
            chunks.append(self.model.features(
                encoding.ids, attention_mask=encoding.attention_mask))
        return np.concatenate(chunks, axis=0)
