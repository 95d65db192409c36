"""Tests for bfloat16 emulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import bf16_compose, to_bfloat16
from tests.oracles.bf16 import all_bf16_values, is_bfloat16

finite_floats = st.floats(min_value=-1e30, max_value=1e30,
                          allow_nan=False, allow_infinity=False)


class TestToBfloat16:
    def test_exact_values_unchanged(self):
        for value in (0.0, 1.0, -2.0, 0.5, 1.5, 256.0):
            assert to_bfloat16(np.float32(value)) == value

    def test_low_bits_cleared(self):
        result = to_bfloat16(np.array([1.000001], dtype=np.float32))
        bits = result.view(np.uint32)[0]
        assert bits & 0xFFFF == 0

    def test_round_to_nearest_even(self):
        # 1 + 2^-8 is exactly between bf16 neighbours 1.0 and 1 + 2^-7;
        # round-to-even picks 1.0 (even mantissa).
        value = np.float32(1.0 + 2.0 ** -8)
        assert to_bfloat16(value) == 1.0
        # 1 + 3*2^-8 ties between 1+2^-7 and 1+2^-6; even is 1+2^-6.
        value = np.float32(1.0 + 3.0 * 2.0 ** -8)
        assert to_bfloat16(value) == 1.0 + 2.0 ** -6

    def test_nan_preserved(self):
        result = to_bfloat16(np.array([np.nan], dtype=np.float32))
        assert np.isnan(result[0])

    def test_shape_preserved(self):
        array = np.zeros((3, 4, 5), dtype=np.float32)
        assert to_bfloat16(array).shape == (3, 4, 5)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 100, size=10000).astype(np.float32)
        relative = np.abs(to_bfloat16(values) - values) / np.abs(values)
        # bf16 has 8 significand bits including the hidden one: eps 2^-8.
        assert relative.max() <= 2.0 ** -8

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, value):
        once = to_bfloat16(np.float32(value))
        assert to_bfloat16(once) == once

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_result_is_bf16(self, value):
        assert is_bfloat16(to_bfloat16(np.float32(value))).all()

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_monotone_nonexpansive(self, value):
        # Rounding never moves a normal value past its bf16 neighbour
        # (subnormals may flush to zero with full relative error).
        rounded = float(to_bfloat16(np.float32(value)))
        if abs(value) > 1e-35:
            assert abs(rounded - float(np.float32(value))) \
                <= abs(float(np.float32(value))) * 2.0 ** -8


class TestDecomposeCompose:
    def test_known_fields(self):
        assert bf16_compose(0, 127, 0) == 1.0
        assert bf16_compose(1, 128, 0) == -2.0
        assert bf16_compose(0, 127, 64) == 1.5

    def test_compose_validates_fields(self):
        with pytest.raises(ValueError):
            bf16_compose(2, 127, 0)
        with pytest.raises(ValueError):
            bf16_compose(0, 300, 0)
        with pytest.raises(ValueError):
            bf16_compose(0, 127, 200)


class TestAllBf16Values:
    def test_count_matches_fields(self):
        # 2 signs x 3 exponents x 128 mantissas, minus overlap at ±: all
        # values are distinct, so 768 total.
        values = all_bf16_values((-1, 1))
        assert len(values) == 2 * 3 * 128

    def test_values_within_range(self):
        values = all_bf16_values((0, 0), include_negative=False)
        assert values.min() >= 1.0
        assert values.max() < 2.0

    def test_sorted_ascending(self):
        values = all_bf16_values((-2, 2))
        assert (np.diff(values) > 0).all()
