"""Property-based differential tests across the three model layers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import SimdOpcode
from tests.oracles.differential import DifferentialHarness


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
