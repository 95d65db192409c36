"""Tests for the amino-acid alphabet and vocabulary."""

import pytest

from repro.proteins import (
    AMINO_ACID_NAMES,
    CHARGE,
    DEFAULT_VOCABULARY,
    EXTENDED_AMINO_ACIDS,
    HYDROPATHY,
    STANDARD_AMINO_ACIDS,
    VOLUME,
    Vocabulary,
    is_valid_sequence,
)


class TestAlphabetTables:
    def test_twenty_standard_amino_acids(self):
        assert len(STANDARD_AMINO_ACIDS) == 20
        assert len(set(STANDARD_AMINO_ACIDS)) == 20

    def test_extended_codes_disjoint_from_standard(self):
        assert not set(STANDARD_AMINO_ACIDS) & set(EXTENDED_AMINO_ACIDS)

    def test_every_amino_acid_has_a_name(self):
        for code in STANDARD_AMINO_ACIDS + EXTENDED_AMINO_ACIDS:
            assert code in AMINO_ACID_NAMES

    def test_hydropathy_covers_all_codes(self):
        for code in STANDARD_AMINO_ACIDS + EXTENDED_AMINO_ACIDS:
            assert code in HYDROPATHY

    def test_hydropathy_signs(self):
        # Isoleucine is the most hydrophobic; arginine the least.
        assert HYDROPATHY["I"] == pytest.approx(4.5)
        assert HYDROPATHY["R"] == pytest.approx(-4.5)

    def test_charged_residues(self):
        assert CHARGE["D"] < 0 and CHARGE["E"] < 0
        assert CHARGE["K"] > 0 and CHARGE["R"] > 0

    def test_volume_ordering(self):
        # Glycine is the smallest side chain, tryptophan the largest.
        assert VOLUME["G"] < VOLUME["A"] < VOLUME["W"]


class TestVocabulary:
    def test_default_size_is_thirty(self):
        assert DEFAULT_VOCABULARY.size == 30

    def test_special_tokens_come_first(self):
        vocab = DEFAULT_VOCABULARY
        assert vocab.pad_id == 0
        assert vocab.tokens.index(vocab.mask_token) == 1
        assert vocab.cls_id == 2
        assert vocab.sep_id == 3
        assert vocab.tokens.index(vocab.unk_token) == 4

    def test_amino_acids_follow_specials(self):
        vocab = DEFAULT_VOCABULARY
        assert vocab.index("A") == 5
        assert vocab.tokens[5:25] == STANDARD_AMINO_ACIDS

    def test_unknown_character_maps_to_unk(self):
        assert DEFAULT_VOCABULARY.index("*") \
            == DEFAULT_VOCABULARY.tokens.index(DEFAULT_VOCABULARY.unk_token)

    def test_id_to_token_roundtrip(self):
        vocab = DEFAULT_VOCABULARY
        for token in STANDARD_AMINO_ACIDS:
            assert vocab.tokens[vocab.index(token)] == token

    def test_custom_vocabulary_is_frozen(self):
        vocab = Vocabulary()
        with pytest.raises(Exception):
            vocab.pad_token = "<p>"  # type: ignore[misc]


class TestIsValidSequence:
    def test_standard_sequence_valid(self):
        assert is_valid_sequence("MEYQ")

    def test_lowercase_accepted(self):
        assert is_valid_sequence("meyq")

    def test_extended_codes_controlled_by_flag(self):
        assert is_valid_sequence("MX")
        assert not is_valid_sequence("MX", allow_extended=False)

    def test_empty_sequence_invalid(self):
        assert not is_valid_sequence("")

    def test_non_amino_characters_invalid(self):
        assert not is_valid_sequence("ME*Q")
        assert not is_valid_sequence("ME Q")
