"""Grouped two-level LUT evaluation: the parity reference for the dense
gather in :meth:`repro.arch.lut.SpecialFunctionLut.lookup`."""

from __future__ import annotations

import numpy as np

from repro.arch.lut import MANTISSA_ENTRIES, SpecialFunctionLut
from repro.model.tensors import BF16_MANTISSA_BITS, EXPONENT_BIAS, to_bfloat16


def lookup_grouped(lut: SpecialFunctionLut, values: np.ndarray) -> np.ndarray:
    """Legacy two-level evaluation (reference for parity tests).

    Extracts the (sign, exponent, mantissa) fields and routes each
    element to the in-window table or the out-of-window approximation,
    gathering one (sign, exponent) group at a time — the code the
    dense table in :meth:`SpecialFunctionLut.lookup` was flattened from.
    """
    spec = lut.spec
    array = to_bfloat16(np.asarray(values, dtype=np.float32))
    flat = np.ascontiguousarray(array).ravel()
    bits = flat.view(np.uint32)
    signs = (bits >> np.uint32(31)) & np.uint32(1)
    exponents = ((bits >> np.uint32(23)) & np.uint32(0xFF)).astype(np.int64)
    mantissas = ((bits >> np.uint32(23 - BF16_MANTISSA_BITS))
                 & np.uint32(MANTISSA_ENTRIES - 1)).astype(np.int64)
    unbiased = exponents - EXPONENT_BIAS

    low, high = spec.exponent_window
    output = np.empty_like(flat)

    below = unbiased < low
    output[below & (signs == 0)] = spec.below_positive
    output[below & (signs == 1)] = spec.below_negative

    above = unbiased > high
    above_pos = above & (signs == 0)
    if spec.above_positive is None:
        output[above_pos] = flat[above_pos]
    else:
        output[above_pos] = spec.above_positive
    output[above & (signs == 1)] = spec.above_negative

    in_window = ~(below | above)
    if in_window.any():
        # Group by (sign, exponent) so each second-level table is hit
        # with one gather — mirrors the hardware's two-level indexing.
        keys = signs[in_window] * 512 + exponents[in_window]
        positions = np.flatnonzero(in_window)
        for key in np.unique(keys):
            sign, biased = int(key) // 512, int(key) % 512
            select = positions[keys == key]
            table = lut._tables[(sign, biased)]
            output[select] = table[mantissas[select]]
    return output.reshape(np.shape(array))


def lookup_uint32_index(lut: SpecialFunctionLut, values: np.ndarray,
                        assume_bf16: bool = False) -> np.ndarray:
    """The dense gather with a ``uint32`` index, which ``np.take``
    converts to ``intp`` before gathering (reference for the one-pass
    ``intp`` index of :meth:`SpecialFunctionLut.lookup`)."""
    array = np.asarray(values, dtype=np.float32)
    if not assume_bf16:
        array = to_bfloat16(array)
    bits = np.ascontiguousarray(array).ravel().view(np.uint32)
    return np.take(lut._dense, bits >> np.uint32(16)).reshape(
        np.shape(array))
