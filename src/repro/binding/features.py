"""BERT feature extraction for downstream protein tasks.

The downstream binding model "performs feature extraction via the Protein
BERT model from TAPE": sequences are tokenized, encoded by the BERT stack,
and the final hidden states are mean-pooled over real tokens into one
fixed-width feature vector per protein.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..model.bert import ProteinBert
from ..proteins.tokenizer import ProteinTokenizer


class FeatureExtractor:
    """Extracts pooled Protein BERT embeddings for protein sequences.

    Args:
        model: the encoder to extract with.
        tokenizer: protein tokenizer (defaults to the standard one).
        batch_size: at most this many sequences per forward pass.
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
        """Features of shape ``(len(sequences), hidden_size)``.

        Only sequences of equal token length share a forward pass, so no
        attention work is spent on padding: the sequences are grouped by
        token length (input order kept inside a group), each group runs in
        chunks of at most ``batch_size``, and each pooled row goes back to
        its input position.  Sequences that all have one length run the
        same chunks, with the same all-ones masks, as padding each chunk.
        """
        if not sequences:
            raise ValueError("extract requires at least one sequence")
        encodings = [self.tokenizer.encode(sequence)
                     for sequence in sequences]
        groups: Dict[int, List[int]] = {}
        for index, encoding in enumerate(encodings):
            groups.setdefault(len(encoding.ids), []).append(index)
        features = np.empty((len(sequences), self.model.config.hidden_size),
                            dtype=np.float32)
        for members in groups.values():
            for start in range(0, len(members), self.batch_size):
                chunk = members[start:start + self.batch_size]
                features[chunk] = self.model.features(
                    np.stack([encodings[i].ids for i in chunk]),
                    attention_mask=np.stack(
                        [encodings[i].attention_mask for i in chunk]))
        return features
