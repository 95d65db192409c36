"""Allocating encoder kernels: the parity references for the in-place
ones in :mod:`repro.model.activations`, :mod:`repro.model.tensors` and
:meth:`repro.arch.systolic.SystolicArray.simd`, and the attention
sublayer and ``Linear`` that call them.

Each function is the kernel as it stood before it stopped allocating a
fresh array at every step; the product kernels must match them bit for
bit.  :func:`gelu_exact` is the erf form of GELU that the tanh
approximation is checked against.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.arch.systolic import SimdOpcode, SimdStep
from repro.model.activations import GELU_CUBIC_COEFF, GELU_TANH_COEFF
from repro.model.attention import ATTENTION_MASK_VALUE


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh GELU with the cube taken by ``np.power``."""
    x = np.asarray(x, dtype=np.float64)
    inner = GELU_TANH_COEFF * (x + GELU_CUBIC_COEFF * np.power(x, 3))
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(np.float32)


def gelu_exact(x: np.ndarray) -> np.ndarray:
    """Exact GELU via the Gauss error function."""
    x = np.asarray(x, dtype=np.float64)
    values = 0.5 * x * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
    return values.astype(np.float32)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-12) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalized = (x - mean) / np.sqrt(var + eps)
    return normalized * gamma + beta


def to_bfloat16(values: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even through four temporaries and a NaN mask."""
    array = np.ascontiguousarray(values, dtype=np.float32)
    bits = array.view(np.uint32)
    lsb = (bits >> np.uint32(16)) & np.uint32(1)
    rounded = bits + np.uint32(0x7FFF) + lsb
    result = (rounded & np.uint32(0xFFFF0000)).view(np.float32)
    nan_mask = np.isnan(array)
    if nan_mask.any():
        result[nan_mask] = np.float32("nan")
    return result.reshape(np.shape(values))


def simd(resident: np.ndarray, step: SimdStep) -> np.ndarray:
    """An ADD or MUL step of :meth:`repro.arch.systolic.SystolicArray.simd`
    with its operand broadcast to the resident shape and then rounded."""
    operand = np.asarray(step.operand, dtype=np.float32)
    if step.broadcast_rows and operand.ndim == 1:
        operand = np.broadcast_to(operand, resident.shape)
    combine = np.add if step.opcode is SimdOpcode.ADD else np.multiply
    return to_bfloat16(combine(to_bfloat16(resident), to_bfloat16(operand)))


def linear(layer, x: np.ndarray) -> np.ndarray:
    """:meth:`repro.model.layers.Linear.forward` with a fresh bias sum."""
    y = x @ layer.weight
    return y if layer.bias is None else y + layer.bias


def attention(module, hidden: np.ndarray,
              attention_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """:meth:`repro.model.attention.MultiHeadAttention.forward` with a
    fresh array for the scale, the mask and every softmax step."""
    batch, seq, width = hidden.shape
    heads, head_dim = module.config.num_heads, module.config.head_dim

    def split_heads(x: np.ndarray) -> np.ndarray:
        return x.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)

    q = split_heads(linear(module.query, hidden))
    k = split_heads(linear(module.key, hidden))
    v = split_heads(linear(module.value, hidden))
    scores = q @ k.transpose(0, 1, 3, 2)
    scores = scores / np.sqrt(head_dim).astype(np.float32)
    if attention_mask is not None:
        bias = ((1.0 - attention_mask[:, None, None, :])
                * ATTENTION_MASK_VALUE)
        scores = scores + bias.astype(np.float32)
    context = softmax(scores, axis=-1) @ v
    context = context.transpose(0, 2, 1, 3).reshape(batch, seq, width)
    return linear(module.output, context)


def attention_scores(exp_lut, q: np.ndarray, k: np.ndarray, scale: float,
                     mask_row: Optional[np.ndarray]) -> np.ndarray:
    """One head's probabilities through the E-Type chain and host softmax
    (:meth:`repro.arch.accelerated_model.AcceleratedProteinBert.
    _attention_scores`), with the mask row materialised to ``(seq, seq)``
    before it is rounded and the exponentials copied before the sum."""
    resident = to_bfloat16(q) @ to_bfloat16(k.T)
    values = simd(resident, SimdStep(SimdOpcode.MUL, 1.0 / scale))
    if mask_row is not None:
        values = simd(values, SimdStep(
            SimdOpcode.ADD, np.broadcast_to(mask_row, resident.shape)))
    exponentials = exp_lut.lookup(values, assume_bf16=True)
    sums = exponentials.astype(np.float32).sum(axis=-1, keepdims=True)
    return exponentials / np.maximum(sums, 1e-30)
