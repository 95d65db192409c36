"""``FeatureExtractor.extract`` as it stood before it grouped sequences
by token length: each run of ``batch_size`` sequences, in input order,
is padded to its longest member and encoded in one forward pass."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.binding.features import FeatureExtractor


def padded_extract(extractor: FeatureExtractor,
                   sequences: Sequence[str]) -> np.ndarray:
    """Features of shape ``(len(sequences), hidden_size)``."""
    if not sequences:
        raise ValueError("extract requires at least one sequence")
    chunks: List[np.ndarray] = []
    for start in range(0, len(sequences), extractor.batch_size):
        batch = sequences[start:start + extractor.batch_size]
        encoding = extractor.tokenizer.encode_batch(batch)
        chunks.append(extractor.model.features(
            encoding.ids, attention_mask=encoding.attention_mask))
    return np.concatenate(chunks, axis=0)
