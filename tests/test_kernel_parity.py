"""Bit-for-bit parity of the in-place encoder kernels with the allocating
ones they replaced (``tests/oracles/kernels.py``), and of the functional
datapath (weights, ``k.T`` and the value slices marked bfloat16) with
the one that rounded every operand on every call
(``tests/oracles/systolic.py``).

Every kernel must give the same bits as its oracle, including NaN
payloads and signed zeros, and must leave its input array unchanged.
"""

import tracemalloc

import numpy as np
import pytest

from repro.arch.accelerated_model import AcceleratedProteinBert
from repro.arch.lut import make_exp_lut, make_gelu_lut
from repro.arch.systolic import SimdOpcode, SimdStep, SystolicArray
from repro.binding.experiment import default_extractor_config
from repro.dataflow.patterns import ArrayType
from repro.model import (
    MultiHeadAttention,
    ProteinBert,
    gelu,
    layer_norm,
    protein_bert_tiny,
    softmax,
    to_bfloat16,
)
from repro.model.weights import pretrained_like_weights
from repro.proteins import ProteinTokenizer, SequenceGenerator
from tests.oracles import kernels as oracle
from tests.oracles.lut import lookup_uint32_index
from tests.oracles.systolic import RoundingAcceleratedBert, unrounded_weights

#: Low halves that exercise round-to-nearest-even: exact, just below a
#: tie, the tie, just above it, and the largest discard (which carries
#: into the exponent and overflows the largest finite value to inf).
LOW_HALVES = (0x0000, 0x7FFF, 0x8000, 0x8001, 0xFFFF)


def bits_of(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    unsigned = {4: np.uint32, 8: np.uint64}[array.dtype.itemsize]
    return np.ascontiguousarray(array).view(unsigned)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(bits_of(got), bits_of(want))


def assert_parity(kernel, reference, *args, **kwargs) -> np.ndarray:
    """Run both on copies of ``args``; the kernel's arrays must not move."""
    inputs = [arg.copy() if isinstance(arg, np.ndarray) else arg
              for arg in args]
    got = kernel(*args, **kwargs)
    for arg, before in zip(args, inputs):
        if isinstance(arg, np.ndarray):
            assert_same_bits(arg, before)
    assert_same_bits(got, reference(*inputs, **kwargs))
    return got


def every_bf16_pattern() -> np.ndarray:
    """All 65,536 bfloat16 bit patterns (NaNs, infs, -0.0, subnormals)."""
    high = np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)
    return high.view(np.float32)


def padded_batch(seed: int, batch: int = 3, seq: int = 9):
    """A ``(batch, seq)`` mask with 0-3 padded tail positions per row."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(seq - 3, seq + 1, size=batch)
    mask = (np.arange(seq)[None, :] < lengths[:, None]).astype(np.float32)
    mask[0, -1] = 0.0  # at least one padded position
    return rng, mask


class TestToBfloat16:
    def test_every_high_half_with_each_low_half(self):
        high = np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)
        patterns = (high[:, None] | np.array(LOW_HALVES, dtype=np.uint32))
        values = patterns.view(np.float32)
        assert values.shape == (1 << 16, len(LOW_HALVES))
        assert_parity(to_bfloat16, oracle.to_bfloat16, values)

    @pytest.mark.parametrize("values", [
        np.float32(1.0 + 3.0 * 2.0 ** -8),
        np.array(-0.0, dtype=np.float32),
        np.array(np.nan, dtype=np.float32),
        np.float64(np.pi),
        3.0e38,
    ], ids=["scalar", "zero-d-neg-zero", "zero-d-nan", "float64-scalar",
            "python-float"])
    def test_zero_d(self, values):
        got = assert_parity(to_bfloat16, oracle.to_bfloat16, values)
        assert got.shape == ()

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4, 2)])
    def test_empty(self, shape):
        assert_parity(to_bfloat16, oracle.to_bfloat16,
                      np.empty(shape, dtype=np.float32))

    def test_non_contiguous(self):
        rng = np.random.default_rng(0)
        matrix = (rng.integers(0, 1 << 32, size=(64, 48), dtype=np.uint64)
                  .astype(np.uint32).view(np.float32))
        for view in (matrix[::3], matrix.T, matrix[:, 5:40:2],
                     np.broadcast_to(matrix[0], (7, 48))):
            assert not view.flags.c_contiguous
            assert_parity(to_bfloat16, oracle.to_bfloat16, view)

    def test_float64(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([
            rng.normal(0.0, 1e3, size=4993),
            rng.normal(0.0, 1e-30, size=500),
            [np.nan, -np.nan, np.inf, -np.inf, -0.0, 1e300, 5e-324]])
        with np.errstate(over="ignore"):
            assert_parity(to_bfloat16, oracle.to_bfloat16,
                          values.reshape(-1, 4)[:, ::2])


class TestGelu:
    def test_every_bf16_pattern(self):
        with np.errstate(invalid="ignore", over="ignore"):
            assert_parity(gelu, oracle.gelu, every_bf16_pattern())

    def test_float32_sample(self):
        rng = np.random.default_rng(2022)
        patterns = rng.integers(0, 1 << 32, size=10 ** 6, dtype=np.uint64)
        values = patterns.astype(np.uint32).view(np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            assert_parity(gelu, oracle.gelu, values)

    def test_activation_tensor(self):
        values = np.random.default_rng(3).normal(
            0.0, 2.0, size=(2, 5, 16)).astype(np.float32)
        assert_parity(gelu, oracle.gelu, values[:, ::2])


class TestSoftmax:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masked_padded_scores(self, seed):
        rng, mask = padded_batch(seed)
        scores = rng.normal(0.0, 3.0, size=(3, 4, 9, 9)).astype(np.float32)
        scores += ((1.0 - mask[:, None, None, :]) * -1e9).astype(np.float32)
        assert_parity(softmax, oracle.softmax, scores, axis=-1)

    def test_other_axis_and_non_contiguous(self):
        scores = np.random.default_rng(4).normal(
            size=(6, 5, 7)).astype(np.float32)
        assert_parity(softmax, oracle.softmax, scores, axis=1)
        assert_parity(softmax, oracle.softmax, scores.transpose(2, 0, 1))

    def test_float64_input_and_extremes(self):
        scores = np.array([[1e4, 1e4 + 1.0, -np.inf], [0.0, -0.0, 3.0]])
        assert_parity(softmax, oracle.softmax, scores)


class TestLayerNorm:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_padded_batch(self, seed):
        rng, mask = padded_batch(seed)
        hidden = rng.normal(1.0, 4.0, size=(3, 9, 16)).astype(np.float32)
        hidden *= mask[..., None]  # padded rows are all zeros
        gamma = rng.normal(size=16).astype(np.float32)
        beta = rng.normal(size=16).astype(np.float32)
        assert_parity(layer_norm, oracle.layer_norm, hidden, gamma, beta)
        assert_parity(layer_norm, oracle.layer_norm, hidden, gamma, beta,
                      eps=1e-5)

    def test_float64_and_non_contiguous_input(self):
        rng = np.random.default_rng(5)
        hidden = rng.normal(size=(4, 10, 8))
        gamma = rng.normal(size=8).astype(np.float32)
        beta = rng.normal(size=8).astype(np.float32)
        assert_parity(layer_norm, oracle.layer_norm, hidden[:, ::3],
                      gamma, beta)


class TestAttention:
    @pytest.fixture(scope="class")
    def model(self):
        return ProteinBert(protein_bert_tiny(num_layers=1), seed=7)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masked_padded_batch(self, model, seed):
        _, mask = padded_batch(seed, batch=3, seq=11)
        ids = np.random.default_rng(seed).integers(
            5, model.config.vocab_size, size=mask.shape)
        hidden = model.embed(ids)
        attention = model.layers[0].attention
        assert_parity(attention.forward, lambda h, m: oracle.attention(
            attention, h, m), hidden, mask)

    def test_unmasked(self, model):
        ids = np.random.default_rng(3).integers(
            5, model.config.vocab_size, size=(2, 7))
        hidden = model.embed(ids)
        attention = model.layers[0].attention
        assert_parity(attention.forward,
                      lambda h: oracle.attention(attention, h), hidden)


class TestSimdDatapath:
    def test_broadcast_bias_rounded_before_broadcast(self):
        rng = np.random.default_rng(6)
        array = SystolicArray(8, ArrayType.M)
        resident = rng.normal(size=(12, 10)).astype(np.float32)
        bias = rng.normal(size=10).astype(np.float32)
        for step in (SimdStep(SimdOpcode.ADD, bias, broadcast_rows=True),
                     SimdStep(SimdOpcode.ADD, resident[::-1]),
                     SimdStep(SimdOpcode.MUL, 0.125)):
            assert_parity(lambda r: array.simd(r, step),
                          lambda r: oracle.simd(r, step), resident)

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_scores(self, masked):
        # q and k are bf16, as every Dataflow 1 read-out is: the product
        # does not round k again.
        rng, mask = padded_batch(8, batch=1, seq=13)
        model = ProteinBert(protein_bert_tiny(num_layers=1), seed=1)
        accelerated = AcceleratedProteinBert(model, array_size=8)
        q = to_bfloat16(rng.normal(size=(13, 16)).astype(np.float32))
        k = to_bfloat16(rng.normal(size=(13, 16)).astype(np.float32))
        row = (((1.0 - mask[0]) * -1e9).astype(np.float32)
               if masked else None)
        exp_lut = accelerated.e_array._exp
        assert_parity(
            lambda q, k: accelerated._attention_scores(q, k, 4.0, row),
            lambda q, k: oracle.attention_scores(exp_lut, q, k, 4.0, row),
            q, k)


def traced_peak(function, *args) -> int:
    """Peak bytes ``tracemalloc`` sees while ``function(*args)`` runs."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEncoderFootprint:
    def test_one_score_tile_at_a_time(self):
        """One head's (seq, seq) scores at a time: at seq 512 the peak
        stays within 6 score tiles, where all eight heads at once need
        more than 18."""
        seq = 512
        config = protein_bert_tiny(num_layers=1, hidden_size=256,
                                   num_heads=8, intermediate_size=512,
                                   max_position=seq)
        attention = ProteinBert(config, seed=0).layers[0].attention
        hidden = np.random.default_rng(0).normal(
            size=(1, seq, 256)).astype(np.float32)
        attention.forward(hidden)
        assert traced_peak(attention.forward, hidden) <= 6 * seq * seq * 4

    @pytest.mark.parametrize("make_lut", [make_gelu_lut, make_exp_lut])
    def test_lut_index_matches_the_uint32_index(self, make_lut):
        lut = make_lut()
        patterns = every_bf16_pattern()
        for values, assume_bf16 in (
                (patterns, True), (patterns.reshape(256, 256), True),
                (np.random.default_rng(4).normal(
                    scale=8.0, size=(3, 5, 7)).astype(np.float32), False),
                (np.float32(1.5), False)):
            assert_same_bits(lut.lookup(values, assume_bf16),
                             lookup_uint32_index(lut, values, assume_bf16))

    @pytest.mark.parametrize("make_lut", [make_gelu_lut, make_exp_lut])
    def test_lut_index_is_built_once(self, make_lut):
        """The dense gather's index is one ``intp`` array: a ``(510,
        510)`` lookup peaks at the index (2x the input) plus the float32
        output (1x).  A ``uint32`` index that ``np.take`` converts
        again peaks at 4x."""
        lut = make_lut()
        values = to_bfloat16(np.random.default_rng(3).normal(
            size=(510, 510)).astype(np.float32))
        lut.lookup(values, assume_bf16=True)
        assert traced_peak(lut.lookup, values, True) <= \
            3 * values.nbytes + 64 * 1024


class TestBf16Weights:
    """The encoder's GEMM weights are rounded to bfloat16 once, when the
    model is built, and the arrays skip re-rounding them.  The old
    datapath (``tests/oracles/systolic.py``) rounds every weight on
    every call; the outputs and the tile accounting must not move."""

    SEQUENCES = ("MEYQKLVIVAST", "ACD", "WKLMNPQRSTVYGH", "MEYQ")

    @pytest.fixture(scope="class")
    def model(self):
        return ProteinBert(protein_bert_tiny(num_layers=2), seed=11)

    @staticmethod
    def pair(model):
        return (AcceleratedProteinBert(model, array_size=8),
                RoundingAcceleratedBert(model, array_size=8))

    def test_weights_rounded_at_build(self, model):
        product, _ = self.pair(model)
        for rounded, weights in zip(product.bf16_weights,
                                    unrounded_weights(model)):
            assert len(rounded) == len(weights) == 6
            for got, weight in zip(rounded, weights):
                assert_same_bits(got, to_bfloat16(weight))

    def test_each_sequence_alone(self, model):
        product, old = self.pair(model)
        tokenizer = ProteinTokenizer()
        for sequence in self.SEQUENCES:
            ids = tokenizer.encode(sequence).ids[None, :]
            assert np.array_equal(product.forward(ids), old.forward(ids))
        assert product.stats.tiles > 0
        assert product.stats == old.stats

    def test_padded_batch(self, model):
        product, old = self.pair(model)
        encoding = ProteinTokenizer().encode_batch(list(self.SEQUENCES))
        mask = encoding.attention_mask
        assert np.array_equal(product.forward(encoding.ids, mask),
                              old.forward(encoding.ids, mask))
        assert product.stats == old.stats


class TestEmbedShape:
    """Both datapaths at the ``embed`` benchmark's shape (the default
    extractor config: 4 layers, 8 heads of 64, pretrained-like weights
    at seed 2022) against their oracles: the fp32 encoder with the
    allocating attention of ``tests/oracles/kernels.py``, and the old
    datapath of ``tests/oracles/systolic.py``.  Outputs must be
    ``np.array_equal`` and the E-Type stats equal."""

    @pytest.fixture(scope="class")
    def model(self):
        config = default_extractor_config()
        return ProteinBert(config, weights=pretrained_like_weights(
            config, seed=2022))

    @staticmethod
    def encode(lengths):
        generator = SequenceGenerator(seed=5)
        sequences = [generator.sequence(length) for length in lengths]
        encoding = ProteinTokenizer().encode_batch(sequences)
        return encoding.ids, encoding.attention_mask

    def check(self, model, monkeypatch, ids, mask):
        product = AcceleratedProteinBert(model)
        old = RoundingAcceleratedBert(model)
        assert np.array_equal(product.forward(ids, mask),
                              old.forward(ids, mask))
        assert product.stats.tiles > 0
        assert product.stats == old.stats

        got = model.forward(ids, mask)
        monkeypatch.setattr(
            MultiHeadAttention, "forward",
            lambda self, hidden, attention_mask=None, recorder=None:
            oracle.attention(self, hidden, attention_mask))
        assert np.array_equal(got, model.forward(ids, mask))

    def test_one_sequence_alone(self, model, monkeypatch):
        ids, _ = self.encode([298])
        self.check(model, monkeypatch, ids, None)

    def test_ragged_masked_batch(self, model, monkeypatch):
        ids, mask = self.encode([298, 251, 180])
        assert not mask.all() and mask[0].all()
        self.check(model, monkeypatch, ids, mask)

    def test_all_ones_mask(self, model, monkeypatch):
        ids, mask = self.encode([298, 298])
        assert mask.all()
        self.check(model, monkeypatch, ids, mask)
