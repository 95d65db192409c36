"""Tests for the character-level protein tokenizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proteins import DEFAULT_VOCABULARY, ProteinTokenizer, STANDARD_AMINO_ACIDS

protein_strings = st.text(
    alphabet=st.sampled_from(STANDARD_AMINO_ACIDS), min_size=1, max_size=64)


@pytest.fixture
def tokenizer():
    return ProteinTokenizer()


class TestEncode:
    def test_special_token_framing(self, tokenizer):
        encoding = tokenizer.encode("MEYQ")
        vocab = DEFAULT_VOCABULARY
        assert encoding.ids[0] == vocab.cls_id
        assert encoding.ids[-1] == vocab.sep_id
        assert len(encoding.ids) == 6

    def test_each_residue_is_one_token(self, tokenizer):
        encoding = tokenizer.encode("ACDEFGHIKLMNPQRSTVWY")
        assert len(encoding.ids) == 22

    def test_lowercase_input_normalized(self, tokenizer):
        upper = tokenizer.encode("MEYQ")
        lower = tokenizer.encode("meyq")
        assert np.array_equal(upper.ids, lower.ids)

    def test_truncation_respects_max_length(self, tokenizer):
        encoding = tokenizer.encode("A" * 100, max_length=10)
        assert len(encoding.ids) == 10
        assert encoding.ids[-1] == DEFAULT_VOCABULARY.sep_id

    def test_padding_to_max_length(self, tokenizer):
        encoding = tokenizer.encode("MEYQ", max_length=12,
                                    pad_to_max_length=True)
        assert len(encoding.ids) == 12
        assert encoding.attention_mask.sum() == 6
        assert (encoding.ids[6:] == DEFAULT_VOCABULARY.pad_id).all()
        assert (encoding.attention_mask[6:] == 0).all()

    def test_padding_without_max_length_raises(self, tokenizer):
        with pytest.raises(ValueError):
            tokenizer.encode("MEYQ", pad_to_max_length=True)

    def test_no_special_tokens_mode(self):
        tokenizer = ProteinTokenizer(add_special_tokens=False)
        encoding = tokenizer.encode("MEYQ")
        assert len(encoding.ids) == 4
        assert encoding.ids[0] == DEFAULT_VOCABULARY.index("M")

    def test_unknown_character_becomes_unk(self, tokenizer):
        encoding = tokenizer.encode("M*Q")
        assert DEFAULT_VOCABULARY.index("*") in encoding.ids

    @given(protein_strings)
    @settings(max_examples=50, deadline=None)
    def test_mask_counts_match_ids(self, sequence):
        tokenizer = ProteinTokenizer()
        encoding = tokenizer.encode(sequence, max_length=80,
                                    pad_to_max_length=True)
        assert encoding.attention_mask.sum() == min(len(sequence) + 2, 80)


class TestEncodeBatch:
    def test_common_length_is_longest_plus_specials(self, tokenizer):
        batch = tokenizer.encode_batch(["MEYQ", "ME"])
        assert batch.ids.shape == (2, 6)
        assert batch.attention_mask.sum() == 6 + 4

    def test_explicit_max_length(self, tokenizer):
        batch = tokenizer.encode_batch(["MEYQ", "ME"], max_length=16)
        assert batch.ids.shape == (2, 16)

    def test_empty_batch_raises(self, tokenizer):
        with pytest.raises(ValueError):
            tokenizer.encode_batch([])

    def test_batch_rows_match_single_encodes(self, tokenizer):
        sequences = ["MEYQ", "ACDE", "WW"]
        batch = tokenizer.encode_batch(sequences, max_length=10)
        for row, sequence in zip(batch.ids, sequences):
            single = tokenizer.encode(sequence, max_length=10,
                                      pad_to_max_length=True)
            assert np.array_equal(row, single.ids)
