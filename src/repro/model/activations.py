"""Reference activation functions for the Protein BERT model.

These are the float32 "golden" implementations.  The accelerator-side
approximations (bfloat16 lookup tables with exponent-window truncation) live
in :mod:`repro.arch.lut` and are validated against these references.
"""

from __future__ import annotations

import numpy as np

#: Constant sqrt(2/pi) used by the tanh-based GELU approximation the paper
#: quotes: GELU(x) = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
GELU_TANH_COEFF = float(np.sqrt(2.0 / np.pi))

#: Cubic coefficient from the same formulation.
GELU_CUBIC_COEFF = 0.044715


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit (tanh approximation, as in the paper).

    The float64 chain runs in place on one buffer.  The cube is
    ``x * x * x``: for float32 inputs ``x * x`` is exact in float64, so
    this is the exactly rounded cube, the value ``np.power(x, 3)`` gives.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x * x
    out *= x
    out *= GELU_CUBIC_COEFF
    out += x
    out *= GELU_TANH_COEFF
    np.tanh(out, out=out)
    out += 1.0
    np.multiply(x, out, out=out)
    out *= 0.5
    return out.astype(np.float32)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float32)
    exps = x - np.max(x, axis=axis, keepdims=True)
    np.exp(exps, out=exps)
    exps /= np.sum(exps, axis=axis, keepdims=True)
    return exps


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-12) -> np.ndarray:
    """Layer normalization over the last axis with float32 ``gamma``/``beta``."""
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalized = x - mean
    normalized /= np.sqrt(var + eps)
    normalized *= gamma
    normalized += beta
    return normalized


def exp(x: np.ndarray) -> np.ndarray:
    """Elementwise exponential (reference for the accelerator Exp LUT)."""
    return np.exp(np.asarray(x, dtype=np.float32)).astype(np.float32)
