"""Property-based differential tests across the three model layers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import SimdOpcode
from repro.trace import Op, OpKind, op_from_dict, op_to_dict
from tests.oracles.differential import DifferentialHarness

op_kinds = st.sampled_from(list(OpKind))


class TestDifferentialProperties:
    @given(st.integers(min_value=2, max_value=4),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_matmul_triple_agreement(self, n, k, seed):
        harness = DifferentialHarness(seed=seed)
        result = harness.run_matmul_case(n=n, k=k)
        assert result.passed, result

    @given(st.integers(min_value=2, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([SimdOpcode.ADD, SimdOpcode.MUL,
                            SimdOpcode.GELU, SimdOpcode.EXP]),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_chained_op_triple_agreement(self, n, k, opcode, seed):
        harness = DifferentialHarness(seed=seed)
        result = harness.run_chain_case(n=n, k=k, opcode=opcode)
        assert result.passed, result


class TestOpSerializationProperties:
    @given(
        st.sampled_from([OpKind.ADD, OpKind.MUL, OpKind.DIV, OpKind.EXP,
                         OpKind.GELU, OpKind.SOFTMAX, OpKind.LAYERNORM]),
        st.lists(st.integers(min_value=1, max_value=4096),
                 min_size=1, max_size=4),
        st.text(alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"),
            whitelist_characters="._"), max_size=30),
        st.integers(min_value=-1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_elementwise_op_roundtrip(self, kind, shape, name, layer):
        op = Op(kind=kind, shape=tuple(shape), name=name, layer=layer)
        assert op_from_dict(op_to_dict(op)) == op

    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.integers(min_value=1, max_value=10 ** 4),
           st.integers(min_value=1, max_value=10 ** 4))
    @settings(max_examples=60, deadline=None)
    def test_matmul_op_roundtrip_and_flops(self, m, k, n):
        op = Op(kind=OpKind.MATMUL, shape=(m, k, n))
        restored = op_from_dict(op_to_dict(op))
        assert restored == op
        assert restored.flops == 2 * m * k * n
