"""NumPy Protein BERT encoder and bfloat16 numerics."""

from .activations import exp, gelu, layer_norm, softmax
from .attention import ATTENTION_MASK_VALUE, MultiHeadAttention
from .bert import EncoderLayer, ProteinBert
from .config import BertConfig, protein_bert_base, protein_bert_tiny
from .layers import Embedding, LayerNorm, Linear
from .tensors import (
    BF16_MANTISSA_BITS,
    all_bf16_values,
    bf16_compose,
    bf16_decompose,
    bf16_unbiased_exponent,
    is_bfloat16,
    quantization_error,
    to_bfloat16,
)
from .decoder import (
    CrossAttention,
    DecoderLayer,
    ProteinSeq2Seq,
    causal_mask,
    initialize_decoder_weights,
)
from .weights import (
    initialize_weights,
    load_weights,
    pretrained_like_weights,
    save_weights,
    validate_weights,
)
from .zoo import MODEL_ZOO, describe, get_model_config, zoo_names

__all__ = [
    "ATTENTION_MASK_VALUE",
    "CrossAttention",
    "DecoderLayer",
    "MODEL_ZOO",
    "ProteinSeq2Seq",
    "causal_mask",
    "describe",
    "get_model_config",
    "initialize_decoder_weights",
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
    "all_bf16_values",
    "bf16_compose",
    "bf16_decompose",
    "bf16_unbiased_exponent",
    "exp",
    "gelu",
    "initialize_weights",
    "is_bfloat16",
    "layer_norm",
    "load_weights",
    "protein_bert_base",
    "protein_bert_tiny",
    "quantization_error",
    "save_weights",
    "softmax",
    "to_bfloat16",
    "validate_weights",
]
