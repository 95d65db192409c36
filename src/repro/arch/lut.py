"""Two-level indexed lookup tables for GELU and Exp (Figures 12-14).

ProSE implements its special functions as per-ALU lookup tables over the
bfloat16 input domain.  A bfloat16 value has 1 sign, 8 exponent, and 7
mantissa bits; the two-level lookup indexes first on (sign, exponent) to
select a 128-entry second-level table, then on the mantissa — one lookup
per cycle.

Only a window of exponents is stored (Figure 13/14):

* GELU stores unbiased exponents in ``[-4, 3]``.  Below the window the
  output is approximated as 0; above it, by the identity for positive
  inputs (GELU(x) → x) and 0 for negative inputs.
* Exp stores unbiased exponents in ``[-6, 5]``.  Below the window
  exp(x) ≈ 1; above it the output saturates (largest-finite bfloat16 for
  positive x, 0 for negative x).

With bfloat16 (2-byte) entries this yields exactly the table sizes the
paper reports: GELU 8 exponents × 2 signs × 128 × 2 B = 4 KB, and Exp
12 × 2 × 128 × 2 B = 6 KB.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..model.activations import exp as exp_reference
from ..model.activations import gelu as gelu_reference
from ..model.tensors import (
    BF16_MANTISSA_BITS,
    EXPONENT_BIAS,
    bf16_compose,
    to_bfloat16,
)

#: Largest finite bfloat16 magnitude (used to saturate Exp overflow).
BF16_MAX = float(bf16_compose(0, 0xFE, (1 << BF16_MANTISSA_BITS) - 1))

#: Unbiased exponent windows from Figures 13 and 14.
GELU_EXPONENT_WINDOW: Tuple[int, int] = (-4, 3)
EXP_EXPONENT_WINDOW: Tuple[int, int] = (-6, 5)

#: Second-level table length: one entry per mantissa pattern.
MANTISSA_ENTRIES = 1 << BF16_MANTISSA_BITS


@dataclass(frozen=True)
class LutSpec:
    """Static description of one special-function lookup table."""

    name: str
    exponent_window: Tuple[int, int]
    reference: Callable[[np.ndarray], np.ndarray]
    #: Outputs for inputs below the window (too small in magnitude).
    below_positive: float
    below_negative: float
    #: Outputs for inputs above the window.  ``None`` means "identity".
    above_positive: Optional[float] = None
    above_negative: float = 0.0

    @property
    def num_exponents(self) -> int:
        low, high = self.exponent_window
        return high - low + 1

    @property
    def table_bytes(self) -> int:
        """Total storage: signs × exponents × mantissa entries × 2 bytes."""
        return 2 * self.num_exponents * MANTISSA_ENTRIES * 2


GELU_SPEC = LutSpec(
    name="gelu",
    exponent_window=GELU_EXPONENT_WINDOW,
    reference=gelu_reference,
    below_positive=0.0,
    below_negative=0.0,
    above_positive=None,   # identity: GELU(x) -> x for large x
    above_negative=0.0,    # GELU(x) -> 0 for very negative x
)

EXP_SPEC = LutSpec(
    name="exp",
    exponent_window=EXP_EXPONENT_WINDOW,
    reference=exp_reference,
    below_positive=1.0,    # exp(x) -> 1 as |x| -> 0
    below_negative=1.0,
    above_positive=BF16_MAX,
    above_negative=0.0,
)


class SpecialFunctionLut:
    """A populated two-level lookup table evaluating one special function.

    The table is built once from the float reference, rounding each entry
    to bfloat16 — exactly what the synthesis flow would burn into SRAM/ROM.

    Args:
        spec: which function and window to build.
    """

    def __init__(self, spec: LutSpec) -> None:
        self.spec = spec
        low, high = spec.exponent_window
        # First level: (sign, biased exponent) -> second-level table.
        self._tables: Dict[Tuple[int, int], np.ndarray] = {}
        for sign in (0, 1):
            for unbiased in range(low, high + 1):
                biased = unbiased + EXPONENT_BIAS
                inputs = np.array(
                    [bf16_compose(sign, biased, m)
                     for m in range(MANTISSA_ENTRIES)], dtype=np.float32)
                outputs = to_bfloat16(spec.reference(inputs))
                # Tables are shared across arrays (the make_* factories
                # memoize); freeze them so sharing stays safe.
                outputs.setflags(write=False)
                self._tables[(sign, biased)] = outputs
        self._dense = self._build_dense()

    def _build_dense(self) -> np.ndarray:
        """Flatten the two-level tables into one dense 65,536-entry array.

        A bfloat16 value is identified by the high 16 bits of its float32
        pattern: 1 sign + 8 exponent + 7 mantissa.  Indexing the dense
        table with ``bits >> 16`` therefore evaluates sign/window routing
        *and* the two-level lookup in a single gather.  Out-of-window and
        identity regions are baked in here, mirroring the per-field
        (sign, exponent) routing of the two-level lookup exactly; the
        in-window runs are the very second-level tables built above,
        scattered at ``(sign << 15) | (biased_exponent << 7)`` (the
        mantissa occupies the low 7 index bits, so each table lands as
        one contiguous run).
        """
        spec = self.spec
        low, high = spec.exponent_window
        index = np.arange(1 << 16, dtype=np.uint32)
        signs = index >> np.uint32(15)
        unbiased = ((index >> np.uint32(7)) & np.uint32(0xFF)).astype(
            np.int64) - EXPONENT_BIAS
        as_float = (index << np.uint32(16)).view(np.float32)

        dense = np.empty(1 << 16, dtype=np.float32)
        below = unbiased < low
        dense[below & (signs == 0)] = spec.below_positive
        dense[below & (signs == 1)] = spec.below_negative
        above = unbiased > high
        above_pos = above & (signs == 0)
        if spec.above_positive is None:
            dense[above_pos] = as_float[above_pos]
        else:
            dense[above_pos] = spec.above_positive
        dense[above & (signs == 1)] = spec.above_negative
        for (sign, biased), table in self._tables.items():
            base = (sign << 15) | (biased << BF16_MANTISSA_BITS)
            dense[base:base + MANTISSA_ENTRIES] = table
        dense.setflags(write=False)
        return dense

    @property
    def table_bytes(self) -> int:
        """Bytes of LUT storage (4 KB for GELU, 6 KB for Exp)."""
        return self.spec.table_bytes

    def lookup(self, values: np.ndarray,
               assume_bf16: bool = False) -> np.ndarray:
        """Vectorized table evaluation over bfloat16 inputs.

        Inputs are rounded to bfloat16 (the datapath carries bf16) and the
        high 16 bits of each float32 pattern index the dense table — one
        ``np.take`` gather evaluates the whole tensor.  Callers whose
        values are already exact bfloat16 patterns (e.g. prior SIMD-stage
        outputs) pass ``assume_bf16=True`` to skip the redundant rounding;
        ``to_bfloat16`` is idempotent, so the results are identical.
        The index is built as ``intp`` in one pass: ``np.take`` would
        convert a ``uint32`` index to ``intp`` first, a second copy.
        """
        array = np.asarray(values, dtype=np.float32)
        if not assume_bf16:
            array = to_bfloat16(array)
        bits = np.ascontiguousarray(array).ravel().view(np.uint32)
        return np.take(self._dense, np.right_shift(bits, 16, dtype=np.intp)
                       ).reshape(np.shape(array))

    def max_absolute_error(self, values: np.ndarray) -> float:
        """Worst-case |LUT - float reference| over ``values``."""
        reference = self.spec.reference(np.asarray(values, dtype=np.float32))
        return float(np.max(np.abs(self.lookup(values) - reference)))


@functools.lru_cache(maxsize=None)
def make_gelu_lut() -> SpecialFunctionLut:
    """The 4 KB GELU lookup table (built once, shared and immutable).

    Every ``ProSEArray``/G-Type instantiation uses the same table the
    synthesis flow would burn into ROM, so construction is memoized at
    module level; the returned object's tables are read-only.
    """
    return SpecialFunctionLut(GELU_SPEC)


@functools.lru_cache(maxsize=None)
def make_exp_lut() -> SpecialFunctionLut:
    """The 6 KB Exp lookup table (built once, shared and immutable)."""
    return SpecialFunctionLut(EXP_SPEC)
