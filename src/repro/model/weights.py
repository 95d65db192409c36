"""Weight initialization and validation for the Protein BERT encoder.

The paper uses TAPE's public pre-trained ProteinBERT weights.  Those weights
are not redistributable here, so we generate deterministic synthetic weights
with the standard BERT initialization (truncated normal, std 0.02).  Every
architecture-side result in the paper depends only on tensor *shapes*, which
are identical; the binding study's need for informative features is met by
random-feature projections (see DESIGN.md, Substitutions).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .config import BertConfig

#: Standard BERT initializer scale.
INIT_STD = 0.02


def _truncated_normal(rng: np.random.Generator, shape, std: float = INIT_STD
                      ) -> np.ndarray:
    """Truncated normal at ±2 std, matching BERT's initializer."""
    values = rng.normal(0.0, std, size=shape)
    return np.clip(values, -2.0 * std, 2.0 * std).astype(np.float32)


def initialize_weights(config: BertConfig, seed: int = 0
                       ) -> Dict[str, np.ndarray]:
    """Create a full, deterministic weight dictionary for ``config``.

    Keys follow a flat dotted scheme, e.g. ``"layer.3.attention.query.weight"``.
    """
    rng = np.random.default_rng(seed)
    weights: Dict[str, np.ndarray] = {}
    hidden, inter = config.hidden_size, config.intermediate_size

    weights["embeddings.token"] = _truncated_normal(
        rng, (config.vocab_size, hidden))
    weights["embeddings.position"] = _truncated_normal(
        rng, (config.max_position, hidden))
    weights["embeddings.layernorm.gamma"] = np.ones(hidden, dtype=np.float32)
    weights["embeddings.layernorm.beta"] = np.zeros(hidden, dtype=np.float32)

    for index in range(config.num_layers):
        prefix = f"layer.{index}"
        for proj in ("query", "key", "value", "attention_output"):
            weights[f"{prefix}.attention.{proj}.weight"] = _truncated_normal(
                rng, (hidden, hidden))
            weights[f"{prefix}.attention.{proj}.bias"] = np.zeros(
                hidden, dtype=np.float32)
        weights[f"{prefix}.attention.layernorm.gamma"] = np.ones(
            hidden, dtype=np.float32)
        weights[f"{prefix}.attention.layernorm.beta"] = np.zeros(
            hidden, dtype=np.float32)
        weights[f"{prefix}.intermediate.weight"] = _truncated_normal(
            rng, (hidden, inter))
        weights[f"{prefix}.intermediate.bias"] = np.zeros(
            inter, dtype=np.float32)
        weights[f"{prefix}.output.weight"] = _truncated_normal(
            rng, (inter, hidden))
        weights[f"{prefix}.output.bias"] = np.zeros(hidden, dtype=np.float32)
        weights[f"{prefix}.output.layernorm.gamma"] = np.ones(
            hidden, dtype=np.float32)
        weights[f"{prefix}.output.layernorm.beta"] = np.zeros(
            hidden, dtype=np.float32)
    return weights


def pretrained_like_weights(config: BertConfig, seed: int = 0,
                            descriptor_scale: float = 0.3
                            ) -> Dict[str, np.ndarray]:
    """Synthetic weights that mimic *pretrained* protein LM structure.

    Pretrained protein language models are known to embed amino acids so
    that biochemical descriptors (hydropathy, charge, volume) are linearly
    recoverable from the token embeddings.  TAPE's actual weights are not
    redistributable, so this initializer reproduces that property: the
    first three embedding dimensions carry the normalized Kyte-Doolittle
    hydropathy, side-chain charge, and side-chain volume of each amino
    acid, at a magnitude (``descriptor_scale``) that survives layer mixing.
    The binding study (Section 2.2) relies on exactly this structure.
    """
    from ..proteins.alphabet import CHARGE, HYDROPATHY, VOLUME, \
        DEFAULT_VOCABULARY

    weights = initialize_weights(config, seed=seed)
    table = weights["embeddings.token"]
    vocab = DEFAULT_VOCABULARY
    for token_id, token in enumerate(vocab.tokens):
        if token_id >= config.vocab_size or len(token) != 1:
            continue  # special tokens keep their random embeddings
        hydro = HYDROPATHY.get(token, 0.0) / 4.5
        charge = CHARGE.get(token, 0.0)
        volume = (VOLUME.get(token, 140.0) - 140.0) / 90.0
        table[token_id, 0] = descriptor_scale * hydro
        table[token_id, 1] = descriptor_scale * charge
        table[token_id, 2] = descriptor_scale * volume
    return weights


def validate_weights(weights: Dict[str, np.ndarray],
                     config: BertConfig) -> None:
    """Raise ``ValueError`` if any expected tensor is missing or mis-shaped."""
    expected = initialize_weights(config, seed=0)
    missing = sorted(set(expected) - set(weights))
    if missing:
        raise ValueError(f"missing weight tensors: {missing[:5]}...")
    for key, reference in expected.items():
        if weights[key].shape != reference.shape:
            raise ValueError(
                f"weight {key}: expected shape {reference.shape}, "
                f"got {weights[key].shape}")
