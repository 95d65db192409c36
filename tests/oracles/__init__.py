"""Reference implementations that only the tests call.

Each module here is an oracle the product code is checked against: the
cycle-by-cycle PE grid and the differential harness (the analogue of the
paper's Verilog functional simulation, Figure 15), the grouped two-level
LUT walk the dense gather was flattened from, the resource timelines
the scheduler's placement kernel was flattened from, the structural
hardware generator (the Chisel-flow analogue) whose component roll-up
cross-checks the Table 2 synthesis anchors, the OpenRAM-style SRAM
macro model of the input buffers with its technology-node scaling,
the per-row trace analysis passes the columnar ones were ported from,
the per-sample monitor the column monitor was ported from, the
allocating encoder kernels (and the erf GELU) the in-place ones are
checked against, the solver that produced the baselines' calibrated
efficiencies, the bfloat16 checks and enumerations the LUT tests
sweep, and the whole-graph walks (acyclicity, weighted critical path,
FLOP coverage) the dataflow tests check built graphs with.  None of
it runs in a simulation, experiment or CLI command, so none of it
ships in ``repro``.
"""
