"""Tests for the GELU/Exp two-level lookup tables (Figures 13-14)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    EXP_EXPONENT_WINDOW,
    GELU_EXPONENT_WINDOW,
    make_exp_lut,
    make_gelu_lut,
)
from repro.model import all_bf16_values, gelu, is_bfloat16, to_bfloat16
from tests.oracles.lut import lookup_grouped


@pytest.fixture(scope="module")
def gelu_lut():
    return make_gelu_lut()


@pytest.fixture(scope="module")
def exp_lut():
    return make_exp_lut()


class TestTableSizes:
    def test_gelu_table_is_4kb(self, gelu_lut):
        assert gelu_lut.table_bytes == 4096

    def test_exp_table_is_6kb(self, exp_lut):
        assert exp_lut.table_bytes == 6144

    def test_windows_match_paper(self, gelu_lut, exp_lut):
        assert gelu_lut.spec.exponent_window == (-4, 3)
        assert exp_lut.spec.exponent_window == (-6, 5)
        assert GELU_EXPONENT_WINDOW == (-4, 3)
        assert EXP_EXPONENT_WINDOW == (-6, 5)

    def test_entry_counts(self, gelu_lut, exp_lut):
        assert gelu_lut.num_entries == 2 * 8 * 128
        assert exp_lut.num_entries == 2 * 12 * 128


class TestGeluPolicy:
    def test_in_window_matches_reference_at_bf16(self, gelu_lut):
        values = all_bf16_values((-4, 3))
        looked = gelu_lut.lookup(values)
        reference = to_bfloat16(gelu(values))
        assert np.array_equal(looked, reference)

    def test_below_window_is_zero(self, gelu_lut):
        assert gelu_lut.lookup_scalar(2.0 ** -5) == 0.0
        assert gelu_lut.lookup_scalar(-(2.0 ** -5)) == 0.0

    def test_above_window_positive_is_identity(self, gelu_lut):
        assert gelu_lut.lookup_scalar(32.0) == 32.0

    def test_above_window_negative_is_zero(self, gelu_lut):
        assert gelu_lut.lookup_scalar(-32.0) == 0.0

    def test_worst_case_error_small_over_activation_range(self, gelu_lut):
        xs = np.linspace(-8.0, 8.0, 20001).astype(np.float32)
        assert gelu_lut.max_absolute_error(xs) < 0.05

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_outputs_are_bfloat16(self, value):
        lut = make_gelu_lut()
        result = np.array([lut.lookup_scalar(value)], dtype=np.float32)
        assert is_bfloat16(result).all()


class TestExpPolicy:
    def test_in_window_matches_reference_at_bf16(self, exp_lut):
        values = all_bf16_values((-6, 5))
        # Restrict to the softmax range (exponent-subtracted inputs <= 0).
        values = values[values <= 0]
        looked = exp_lut.lookup(values)
        reference = to_bfloat16(np.exp(values))
        assert np.array_equal(looked, reference)

    def test_below_window_is_one(self, exp_lut):
        assert exp_lut.lookup_scalar(2.0 ** -7) == 1.0
        assert exp_lut.lookup_scalar(-(2.0 ** -7)) == 1.0

    def test_large_negative_saturates_to_zero(self, exp_lut):
        assert exp_lut.lookup_scalar(-100.0) == 0.0

    def test_large_positive_saturates_to_max(self, exp_lut):
        result = exp_lut.lookup_scalar(100.0)
        assert result > 3e38

    def test_exp_positive_monotone_on_grid(self, exp_lut):
        xs = np.linspace(-10, 3, 400).astype(np.float32)
        ys = exp_lut.lookup(xs)
        assert (np.diff(ys) >= 0).all()

    def test_softmax_via_lut_close_to_reference(self, exp_lut):
        rng = np.random.default_rng(0)
        scores = rng.normal(0, 2, size=(16, 32)).astype(np.float32)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        numerators = exp_lut.lookup(shifted)
        probabilities = numerators / numerators.sum(axis=-1, keepdims=True)
        reference = np.exp(shifted) / np.exp(shifted).sum(
            axis=-1, keepdims=True)
        assert np.abs(probabilities - reference).max() < 0.02


class TestDenseGroupedParity:
    """The dense-gather lookup must be bit-identical to the legacy
    grouped two-level walk over the *entire* bfloat16 domain."""

    @staticmethod
    def _all_bf16_patterns():
        """Every 16-bit bfloat16 pattern as float32: finite values of both
        signs (in-window, below, above), ±inf, and every NaN payload."""
        index = np.arange(1 << 16, dtype=np.uint32)
        return (index << np.uint32(16)).view(np.float32)

    @pytest.mark.parametrize("lut_name", ["gelu", "exp"])
    def test_exhaustive_bit_parity(self, lut_name, gelu_lut, exp_lut):
        lut = gelu_lut if lut_name == "gelu" else exp_lut
        values = self._all_bf16_patterns()
        dense = lut.lookup(values)
        grouped = lookup_grouped(lut, values)
        # Bitwise comparison: NaNs must map to the same pattern too.
        assert np.array_equal(dense.view(np.uint32),
                              grouped.view(np.uint32))

    @pytest.mark.parametrize("lut_name", ["gelu", "exp"])
    def test_assume_bf16_bit_parity(self, lut_name, gelu_lut, exp_lut):
        """Skipping the input rounding on exact bf16 patterns changes
        nothing (to_bfloat16 idempotence); NaN payloads are exempt since
        producers only ever emit the canonical NaN."""
        lut = gelu_lut if lut_name == "gelu" else exp_lut
        values = self._all_bf16_patterns()
        values = values[~np.isnan(values)]
        values = np.concatenate(
            [values, np.array([np.nan], dtype=np.float32)])
        fast = lut.lookup(values, assume_bf16=True)
        slow = lut.lookup(values)
        assert np.array_equal(fast.view(np.uint32), slow.view(np.uint32))

    def test_non_bf16_inputs_round_first(self, gelu_lut):
        rng = np.random.default_rng(7)
        fine = rng.normal(scale=30, size=4096).astype(np.float32)
        assert np.array_equal(gelu_lut.lookup(fine).view(np.uint32),
                              lookup_grouped(gelu_lut, fine).view(np.uint32))


class TestLookupMechanics:
    def test_vector_lookup_matches_scalar(self, gelu_lut):
        values = np.array([-3.0, -0.5, 0.7, 2.1, 9.9], dtype=np.float32)
        vector = gelu_lut.lookup(values)
        scalars = [gelu_lut.lookup_scalar(float(v)) for v in values]
        assert np.allclose(vector, scalars)

    def test_preserves_shape(self, exp_lut):
        values = np.zeros((3, 5, 2), dtype=np.float32)
        assert exp_lut.lookup(values).shape == (3, 5, 2)

    def test_input_rounded_to_bf16_first(self, gelu_lut):
        fine = np.float32(1.0 + 2.0 ** -12)
        assert gelu_lut.lookup_scalar(float(fine)) \
            == gelu_lut.lookup_scalar(1.0)
