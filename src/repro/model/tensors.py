"""bfloat16 emulation on top of NumPy float32.

ProSE computes MACs in bfloat16 and accumulates in 32-bit (paper Figure 10b),
"similar to TPUs to prevent precision loss".  NumPy has no native bfloat16,
so we emulate it exactly: a bfloat16 value is a float32 whose low 16 mantissa
bits are zero.  Rounding uses round-to-nearest-even on the discarded bits,
which matches hardware bfloat16 converters.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Number of mantissa bits explicitly stored by bfloat16.
BF16_MANTISSA_BITS = 7

#: Exponent bias shared by bfloat16 and float32.
EXPONENT_BIAS = 127


def to_bfloat16(values: np.ndarray) -> np.ndarray:
    """Round float values to the nearest bfloat16, returned as float32.

    Implements round-to-nearest-even: add ``0x7FFF + lsb`` to the uint32
    view before truncating the low 16 bits, in one scratch buffer.  NaNs
    are preserved; one ``max()``, which propagates NaN, finds them.
    """
    array = np.ascontiguousarray(values, dtype=np.float32)
    bits = array.view(np.uint32)
    rounded = bits >> np.uint32(16)
    rounded &= np.uint32(1)
    rounded += bits
    rounded += np.uint32(0x7FFF)
    rounded &= np.uint32(0xFFFF0000)
    result = rounded.view(np.float32)
    if array.size and np.isnan(array.max()):
        result[np.isnan(array)] = np.float32("nan")
    return result.reshape(np.shape(values))


def is_bfloat16(values: np.ndarray) -> np.ndarray:
    """Elementwise check that values are exactly representable in bfloat16."""
    array = np.ascontiguousarray(values, dtype=np.float32)
    bits = array.view(np.uint32)
    return ((bits & np.uint32(0xFFFF)) == 0) | np.isnan(array)


def bf16_decompose(value: float) -> Tuple[int, int, int]:
    """Split a bfloat16 value into (sign, biased exponent, mantissa) fields.

    The special-function lookup tables (:mod:`repro.arch.lut`) index on these
    fields exactly as the hardware's two-level indexed lookup would.
    """
    bits = int(np.float32(value).view(np.uint32))
    sign = (bits >> 31) & 0x1
    exponent = (bits >> 23) & 0xFF
    mantissa = (bits >> (23 - BF16_MANTISSA_BITS)) & ((1 << BF16_MANTISSA_BITS) - 1)
    return sign, exponent, mantissa


def bf16_compose(sign: int, exponent: int, mantissa: int) -> float:
    """Inverse of :func:`bf16_decompose`."""
    if not 0 <= sign <= 1:
        raise ValueError("sign must be 0 or 1")
    if not 0 <= exponent <= 0xFF:
        raise ValueError("biased exponent must fit in 8 bits")
    if not 0 <= mantissa < (1 << BF16_MANTISSA_BITS):
        raise ValueError("mantissa must fit in 7 bits")
    bits = (sign << 31) | (exponent << 23) | (mantissa << (23 - BF16_MANTISSA_BITS))
    return float(np.uint32(bits).view(np.float32))


def bf16_unbiased_exponent(value: float) -> int:
    """Unbiased exponent of a bfloat16 value (used by LUT range checks)."""
    _, exponent, _ = bf16_decompose(value)
    return exponent - EXPONENT_BIAS


def all_bf16_values(exponent_range: Tuple[int, int],
                    include_negative: bool = True) -> np.ndarray:
    """Enumerate every finite bfloat16 value with unbiased exponent in range.

    Args:
        exponent_range: inclusive ``(low, high)`` unbiased exponent window.
        include_negative: also emit the negative half of the domain.

    Returns:
        A 1-D float32 array of distinct bfloat16 values, ascending.
    """
    low, high = exponent_range
    values = []
    signs = (0, 1) if include_negative else (0,)
    for sign in signs:
        for exponent in range(low + EXPONENT_BIAS, high + EXPONENT_BIAS + 1):
            for mantissa in range(1 << BF16_MANTISSA_BITS):
                values.append(bf16_compose(sign, exponent, mantissa))
    return np.array(sorted(set(values)), dtype=np.float32)


def quantization_error(values: np.ndarray) -> np.ndarray:
    """Absolute error introduced by rounding ``values`` to bfloat16."""
    array = np.asarray(values, dtype=np.float32)
    return np.abs(array - to_bfloat16(array))
