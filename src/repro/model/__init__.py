"""NumPy Protein BERT encoder and bfloat16 numerics."""

from .activations import exp, gelu, layer_norm, softmax
from .attention import ATTENTION_MASK_VALUE, MultiHeadAttention
from .bert import EncoderLayer, ProteinBert
from .config import BertConfig, protein_bert_base, protein_bert_tiny
from .layers import Embedding, LayerNorm, Linear
from .tensors import (
    BF16_MANTISSA_BITS,
    bf16_compose,
    to_bfloat16,
)
from .weights import (
    initialize_weights,
    pretrained_like_weights,
    validate_weights,
)
from .zoo import MODEL_ZOO, describe, get_model_config, zoo_names

__all__ = [
    "ATTENTION_MASK_VALUE",
    "MODEL_ZOO",
    "describe",
    "get_model_config",
    "pretrained_like_weights",
    "zoo_names",
    "BF16_MANTISSA_BITS",
    "BertConfig",
    "Embedding",
    "EncoderLayer",
    "LayerNorm",
    "Linear",
    "MultiHeadAttention",
    "ProteinBert",
    "bf16_compose",
    "exp",
    "gelu",
    "initialize_weights",
    "layer_norm",
    "protein_bert_base",
    "protein_bert_tiny",
    "softmax",
    "to_bfloat16",
    "validate_weights",
]
