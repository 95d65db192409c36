"""Structural hardware generator — the Chisel-flow analogue.

The paper's implementation methodology (Section 4.1) generates systolic
arrays, GELU units, and Exp units in Chisel, compiles to Verilog, and
synthesizes them.  This module is the Python analogue of that generator:
given (size, LUT options) it elaborates the design into a component
inventory — MAC datapaths, operand/accumulator registers, rotation muxes,
SIMD ALUs, LUT bits, streaming-buffer bits — and rolls the inventory up
into power/area estimates that can be cross-checked against the
synthesized anchors of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.arch.lut import EXP_SPEC, GELU_SPEC
from repro.dataflow.patterns import ArrayType
from repro.physical.synthesis import characteristics

#: Depth of the streaming buffers in the shipped ProSE design.
DEFAULT_DEPTH = 8

#: Per-component 7 nm unit costs, fit from the Table 2 anchors: a bf16
#: multiplier + fp32 adder MAC datapath dominates; registers and muxes
#: fill in the linear-in-n terms.
MAC_POWER_MW = 0.55
MAC_AREA_UM2 = 620.0
REGISTER_BIT_POWER_MW = 0.00035
REGISTER_BIT_AREA_UM2 = 0.28
MUX_POWER_MW = 0.012
MUX_AREA_UM2 = 12.0
ALU_POWER_MW = 0.30
ALU_AREA_UM2 = 300.0
LUT_BIT_POWER_MW = 0.00018
LUT_BIT_AREA_UM2 = 0.11


@dataclass(frozen=True)
class ComponentInventory:
    """Elaborated structure of one ProSE systolic array.

    Counts follow the microarchitecture of Figures 5 and 10: one MAC per
    PE; two 16-bit operand registers and one 32-bit accumulator per PE;
    one left-rotation mux per PE; n SIMD ALUs with vector/scalar
    registers; n LUT replicas per attached special function; two 8-deep
    n-wide streaming buffers.
    """

    size: int
    array_type: ArrayType
    macs: int
    operand_register_bits: int
    accumulator_bits: int
    rotation_muxes: int
    simd_alus: int
    vector_register_bits: int
    lut_bits: int
    stream_buffer_bits: int

    @property
    def total_register_bits(self) -> int:
        return (self.operand_register_bits + self.accumulator_bits
                + self.vector_register_bits + self.stream_buffer_bits)

    def power_mw(self) -> float:
        """Roll-up dynamic+leakage power estimate at 7 nm."""
        return (self.macs * MAC_POWER_MW
                + self.total_register_bits * REGISTER_BIT_POWER_MW
                + self.rotation_muxes * MUX_POWER_MW
                + self.simd_alus * ALU_POWER_MW
                + self.lut_bits * LUT_BIT_POWER_MW)

    def area_mm2(self) -> float:
        """Roll-up area estimate at 7 nm."""
        total_um2 = (self.macs * MAC_AREA_UM2
                     + self.total_register_bits * REGISTER_BIT_AREA_UM2
                     + self.rotation_muxes * MUX_AREA_UM2
                     + self.simd_alus * ALU_AREA_UM2
                     + self.lut_bits * LUT_BIT_AREA_UM2)
        return total_um2 / 1e6


def elaborate(size: int, array_type: ArrayType,
              buffer_depth: int = DEFAULT_DEPTH) -> ComponentInventory:
    """Elaborate an (n, type) systolic array into its component counts."""
    if size <= 0:
        raise ValueError("array size must be positive")
    pes = size * size
    lut_bits = 0
    if array_type.has_gelu:
        lut_bits += size * GELU_SPEC.table_bytes * 8
    if array_type.has_exp:
        lut_bits += size * EXP_SPEC.table_bytes * 8
    return ComponentInventory(
        size=size,
        array_type=array_type,
        macs=pes,
        operand_register_bits=pes * 2 * 16,
        accumulator_bits=pes * 32,
        rotation_muxes=pes,
        simd_alus=size,
        vector_register_bits=size * 16 + 16,      # vector + scalar regs
        lut_bits=lut_bits,
        stream_buffer_bits=2 * buffer_depth * size * 16,
    )


def elaboration_report(size: int, array_type: ArrayType) -> str:
    """Human-readable elaboration summary with the roll-up estimates."""
    inventory = elaborate(size, array_type)
    lines = [
        f"{size}x{size} {array_type.value}-Type systolic array",
        f"  MAC datapaths:        {inventory.macs}",
        f"  operand registers:    {inventory.operand_register_bits} bits",
        f"  accumulators:         {inventory.accumulator_bits} bits",
        f"  rotation muxes:       {inventory.rotation_muxes}",
        f"  SIMD ALUs:            {inventory.simd_alus}",
        f"  LUT storage:          {inventory.lut_bits // 8} bytes",
        f"  streaming buffers:    {inventory.stream_buffer_bits} bits",
        f"  roll-up power:        {inventory.power_mw():.1f} mW",
        f"  roll-up area:         {inventory.area_mm2():.3f} mm2",
    ]
    return "\n".join(lines)


def crosscheck_against_table2() -> Dict[Tuple[int, str], Tuple[float, float]]:
    """Compare roll-up estimates with the synthesized Table 2 anchors.

    Returns:
        Mapping (size, type letter) -> (power ratio, area ratio), where a
        ratio of 1.0 means the structural roll-up reproduces the
        synthesized value exactly.
    """
    ratios = {}
    for size in (16, 32, 64):
        for array_type in (ArrayType.M, ArrayType.G, ArrayType.E):
            inventory = elaborate(size, array_type)
            anchor = characteristics(size, gelu=array_type.has_gelu,
                                     exp=array_type.has_exp)
            ratios[(size, array_type.value)] = (
                inventory.power_mw() / anchor.power_mw,
                inventory.area_mm2() / anchor.area_mm2)
    return ratios
