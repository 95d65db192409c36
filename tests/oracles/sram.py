"""OpenRAM-style SRAM macro model for the ProSE input buffers.

The paper synthesizes the input buffers with OpenRAM at a 45 nm PDK and
scales the results to 7 nm.  This module is a parametric SRAM macro
model — bitcell array plus peripheral overhead — with the 45 nm → 7 nm
scaling step explicit, using per-node factors in the style of the
Stillmaker & Baas sub-10 nm methodology the paper cites (Section 4.1).
Table 2's input-buffer columns come from the
synthesis anchors in :mod:`repro.physical.synthesis`, not from this
model, so only the tests call it; the buffer capacity the product code
needs is :func:`repro.physical.sram.input_buffer_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Relative switching power at constant frequency vs 45 nm.  The factors
#: follow the published shape of the Stillmaker-Baas curves: energy
#: improves steeply down to 14 nm and then flattens in the sub-10 nm
#: regime.
POWER_FACTORS: Dict[int, float] = {
    180: 9.20, 130: 4.71, 90: 2.60, 65: 1.62, 45: 1.00,
    32: 0.71, 20: 0.42, 15: 0.31, 14: 0.29, 10: 0.21, 7: 0.16,
}

#: Relative area vs 45 nm: it keeps shrinking roughly with feature size
#: squared, tempered by fin quantization.
AREA_FACTORS: Dict[int, float] = {
    180: 16.0, 130: 8.34, 90: 4.00, 65: 2.09, 45: 1.00,
    32: 0.51, 20: 0.20, 15: 0.12, 14: 0.11, 10: 0.062, 7: 0.036,
}

#: 45 nm 6T SRAM bitcell area in mm² (typical published foundry value).
BITCELL_AREA_45NM_MM2 = 0.374e-6

#: Peripheral (decoder, sense amps, IO) area overhead fraction.
PERIPHERY_OVERHEAD = 0.9

#: 45 nm dynamic read energy per bit in joules (OpenRAM-class macro).
READ_ENERGY_PER_BIT_45NM = 0.08e-12

#: 45 nm leakage per bit in watts.
LEAKAGE_PER_BIT_45NM = 12e-12


def _factor(table: Dict[int, float], from_nm: int, to_nm: int) -> float:
    if from_nm not in table or to_nm not in table:
        known = sorted(table)
        raise ValueError(f"unknown node; known nodes: {known}")
    return table[to_nm] / table[from_nm]


def scale_power(value: float, from_nm: int, to_nm: int) -> float:
    """Scale switching power at constant frequency between nodes."""
    return value * _factor(POWER_FACTORS, from_nm, to_nm)


def scale_area(value: float, from_nm: int, to_nm: int) -> float:
    """Scale silicon area between nodes."""
    return value * _factor(AREA_FACTORS, from_nm, to_nm)


@dataclass(frozen=True)
class SramMacro:
    """One synthesized SRAM macro scaled to a target node.

    Attributes:
        bits: storage capacity in bits.
        node_nm: technology node of the reported numbers.
        area_mm2: macro area.
        read_power_mw: dynamic power at the given access rate.
        leakage_mw: static power.
    """

    bits: int
    node_nm: int
    area_mm2: float
    read_power_mw: float
    leakage_mw: float

    @property
    def total_power_mw(self) -> float:
        return self.read_power_mw + self.leakage_mw


def synthesize_sram(bits: int, access_hz: float, node_nm: int = 7
                    ) -> SramMacro:
    """Model an OpenRAM macro at 45 nm and scale it to ``node_nm``.

    Args:
        bits: macro capacity.
        access_hz: sustained read accesses per second (whole words count
            once per bit here for simplicity).
        node_nm: target node (default 7 nm as in the paper).
    """
    if bits <= 0 or access_hz < 0:
        raise ValueError("bits must be positive and access rate non-negative")
    area_45 = bits * BITCELL_AREA_45NM_MM2 * (1.0 + PERIPHERY_OVERHEAD)
    read_power_45 = bits * READ_ENERGY_PER_BIT_45NM * access_hz * 1e3  # mW
    leakage_45 = bits * LEAKAGE_PER_BIT_45NM * 1e3                      # mW
    return SramMacro(
        bits=bits,
        node_nm=node_nm,
        area_mm2=scale_area(area_45, 45, node_nm),
        read_power_mw=scale_power(read_power_45, 45, node_nm),
        leakage_mw=scale_power(leakage_45, 45, node_nm))
