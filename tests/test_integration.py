"""Cross-module integration tests: the full Figure 15 flow end to end."""

import numpy as np

from repro import ProSEEngine, best_perf, protein_bert_tiny
from repro.arch import SystolicArray, SimdOpcode, SimdStep, make_exp_lut
from repro.arch.accelerated_model import AcceleratedProteinBert
from repro.dataflow import ArrayType, DataflowKind, build_dataflow_graph
from repro.model import ProteinBert, to_bfloat16
from repro.proteins import ProteinTokenizer, SequenceGenerator
from repro.sched import Orchestrator
from repro.trace import OpKind

from tests.oracles.bf16 import is_bfloat16
from tests.oracles.dataflow import validate_acyclic

CONFIG = protein_bert_tiny(num_layers=2, hidden_size=64, num_heads=4,
                           intermediate_size=128)


class TestTraceToScheduleFlow:
    """Recorded trace -> dataflow graph -> schedule, as in Figure 15."""

    def test_recorded_trace_schedules(self):
        model = ProteinBert(CONFIG, seed=0)
        recorded = []
        sequences = SequenceGenerator(seed=0).batch(2, 14)
        encoding = ProteinTokenizer().encode_batch(sequences)
        model.forward(encoding.ids, encoding.attention_mask, recorded)

        graph = build_dataflow_graph(recorded)
        assert validate_acyclic(graph)
        kinds = [df.kind for _, df in graph.dataflows]
        assert kinds.count(DataflowKind.DATAFLOW_1) == 10
        assert kinds.count(DataflowKind.DATAFLOW_2) == 2
        assert kinds.count(DataflowKind.DATAFLOW_3) == 2

    def test_engine_end_to_end(self):
        engine = ProSEEngine(hardware=best_perf(), model_config=CONFIG)
        report = engine.simulate(batch=8, seq_len=32)
        assert report.throughput > 0
        assert report.efficiency > 0
        comparison = engine.compare(engine.a100, batch=8, seq_len=32)
        assert comparison.speedup > 0


class TestFunctionalVsTimedConsistency:
    """The functional and analytic models must agree on work done."""

    def test_mac_counts_match_trace_flops(self):
        model = ProteinBert(CONFIG, seed=1)
        accelerated = AcceleratedProteinBert(model, array_size=8)
        rng = np.random.default_rng(0)
        ids = rng.integers(5, 25, size=(1, 8))
        accelerated.forward(ids)
        # Every traced GEMM flop is 2 x a MAC; embeddings/norms add none.
        recorded = []
        model.forward(ids, recorder=recorded)
        gemm_flops = sum(op.flops for op in recorded
                         if op.kind in (OpKind.MATMUL, OpKind.BMM))
        assert 2 * accelerated.stats.mac_operations == gemm_flops


class TestDataflow3Numerics:
    """Dataflow 3's split softmax must equal a plain softmax closely."""

    def test_exp_lut_softmax_matches_reference(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(0, 1.5, size=(12, 12)).astype(np.float32)
        array = SystolicArray(4, ArrayType.E)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        numerators = array.simd(shifted, SimdStep(SimdOpcode.EXP))
        probabilities = numerators / numerators.sum(axis=-1, keepdims=True)
        reference = np.exp(shifted) / np.exp(shifted).sum(
            axis=-1, keepdims=True)
        assert np.abs(probabilities - reference).max() < 0.02


class TestChainedVsUnchainedConsistency:
    """The chained-dataflow advantage must show up in the schedule."""

    def test_chaining_reduces_traffic_and_time(self):
        import dataclasses
        chained = best_perf()
        unchained = dataclasses.replace(chained, chained=False)
        fast = Orchestrator(chained).run(CONFIG, batch=8, seq_len=64)
        slow = Orchestrator(unchained).run(CONFIG, batch=8, seq_len=64)
        assert slow.total_stream_bytes > fast.total_stream_bytes
        assert slow.makespan_seconds >= fast.makespan_seconds


class TestPrecisionFlow:
    """bf16 rounding composes consistently across layers of the stack."""

    def test_systolic_output_representable(self):
        rng = np.random.default_rng(4)
        array = SystolicArray(8, ArrayType.M)
        a = rng.normal(size=(16, 24)).astype(np.float32)
        b = rng.normal(size=(24, 16)).astype(np.float32)
        out = array.execute_chain(a, b)
        assert is_bfloat16(out).all()

    def test_exp_lut_agrees_with_systolic_path(self):
        lut = make_exp_lut()
        array = SystolicArray(4, ArrayType.E)
        values = np.linspace(-4, 0, 16).reshape(4, 4).astype(np.float32)
        via_array = array.simd(values, SimdStep(SimdOpcode.EXP))
        via_lut = lut.lookup(to_bfloat16(values))
        assert np.array_equal(via_array, via_lut)
