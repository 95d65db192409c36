"""bfloat16 checks and enumerations the LUT and datapath tests use.

A bfloat16 value is a float32 whose low 16 mantissa bits are zero
(:func:`repro.model.tensors.to_bfloat16`); these helpers test for that
and list every such value in an exponent window.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.model.tensors import BF16_MANTISSA_BITS, EXPONENT_BIAS, bf16_compose


def is_bfloat16(values: np.ndarray) -> np.ndarray:
    """Elementwise check that values are exactly representable in bfloat16."""
    array = np.ascontiguousarray(values, dtype=np.float32)
    bits = array.view(np.uint32)
    return ((bits & np.uint32(0xFFFF)) == 0) | np.isnan(array)


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
