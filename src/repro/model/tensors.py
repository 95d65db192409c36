"""bfloat16 emulation on top of NumPy float32.

ProSE computes MACs in bfloat16 and accumulates in 32-bit (paper Figure 10b),
"similar to TPUs to prevent precision loss".  NumPy has no native bfloat16,
so we emulate it exactly: a bfloat16 value is a float32 whose low 16 mantissa
bits are zero.  Rounding uses round-to-nearest-even on the discarded bits,
which matches hardware bfloat16 converters.
"""

from __future__ import annotations

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


def bf16_compose(sign: int, exponent: int, mantissa: int) -> float:
    """The bfloat16 value with the given (sign, biased exponent, mantissa).

    The special-function lookup tables (:mod:`repro.arch.lut`) build their
    entries from these fields exactly as the hardware's two-level indexed
    lookup reads them.
    """
    if not 0 <= sign <= 1:
        raise ValueError("sign must be 0 or 1")
    if not 0 <= exponent <= 0xFF:
        raise ValueError("biased exponent must fit in 8 bits")
    if not 0 <= mantissa < (1 << BF16_MANTISSA_BITS):
        raise ValueError("mantissa must fit in 7 bits")
    bits = (sign << 31) | (exponent << 23) | (mantissa << (23 - BF16_MANTISSA_BITS))
    return float(np.uint32(bits).view(np.float32))
