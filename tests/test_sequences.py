"""Tests for synthetic sequence generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proteins import (
    BACKGROUND_FREQUENCIES,
    SequenceGenerator,
    STANDARD_AMINO_ACIDS,
    is_valid_sequence,
)


class TestSequenceGenerator:
    def test_deterministic_given_seed(self):
        assert (SequenceGenerator(seed=3).sequence(50)
                == SequenceGenerator(seed=3).sequence(50))

    def test_different_seeds_differ(self):
        assert (SequenceGenerator(seed=1).sequence(100)
                != SequenceGenerator(seed=2).sequence(100))

    def test_length_respected(self):
        assert len(SequenceGenerator(seed=0).sequence(137)) == 137

    def test_only_standard_amino_acids(self):
        sequence = SequenceGenerator(seed=0).sequence(500)
        assert set(sequence) <= set(STANDARD_AMINO_ACIDS)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            SequenceGenerator(seed=0).sequence(0)

    def test_composition_tracks_background(self):
        sequence = SequenceGenerator(seed=0).sequence(50000)
        leucine_share = sequence.count("L") / len(sequence)
        assert abs(leucine_share - BACKGROUND_FREQUENCIES["L"]) < 0.01

    def test_batch_shape(self):
        batch = SequenceGenerator(seed=0).batch(count=5, length=20)
        assert len(batch) == 5
        assert all(len(s) == 20 for s in batch)


class TestMutate:
    def test_exact_mutation_count(self):
        generator = SequenceGenerator(seed=0)
        base = generator.sequence(100)
        mutant = generator.mutate(base, 7)
        assert sum(a != b for a, b in zip(base, mutant)) == 7

    def test_zero_mutations_is_identity(self):
        generator = SequenceGenerator(seed=0)
        base = generator.sequence(30)
        assert generator.mutate(base, 0) == base

    def test_restricted_positions(self):
        generator = SequenceGenerator(seed=0)
        base = generator.sequence(100)
        allowed = [10, 20, 30, 40]
        mutant = generator.mutate(base, 3, positions=allowed)
        changed = [i for i, (a, b) in enumerate(zip(base, mutant)) if a != b]
        assert set(changed) <= set(allowed)
        assert len(changed) == 3

    def test_too_many_mutations_rejected(self):
        generator = SequenceGenerator(seed=0)
        with pytest.raises(ValueError):
            generator.mutate("MEYQ", 5)

    def test_out_of_range_positions_rejected(self):
        generator = SequenceGenerator(seed=0)
        with pytest.raises(ValueError):
            generator.mutate("MEYQ", 1, positions=[9])

    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_mutant_stays_valid(self, count):
        generator = SequenceGenerator(seed=4)
        base = generator.sequence(40)
        assert is_valid_sequence(generator.mutate(base, count))
