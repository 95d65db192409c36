"""OpenRAM-style SRAM macro model for the ProSE input buffers.

The paper synthesizes the input buffers with OpenRAM at a 45 nm PDK and
scales the results to 7 nm.  This module is a parametric SRAM macro
model — bitcell array plus peripheral overhead — with the 45 nm → 7 nm
scaling step explicit.  Table 2's input-buffer columns come from the
synthesis anchors in :mod:`repro.physical.synthesis`, not from this
model, so only the tests call it; the buffer capacity the product code
needs is :func:`repro.physical.sram.input_buffer_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.physical.scaling import scale_area, scale_power

#: 45 nm 6T SRAM bitcell area in mm² (typical published foundry value).
BITCELL_AREA_45NM_MM2 = 0.374e-6

#: Peripheral (decoder, sense amps, IO) area overhead fraction.
PERIPHERY_OVERHEAD = 0.9

#: 45 nm dynamic read energy per bit in joules (OpenRAM-class macro).
READ_ENERGY_PER_BIT_45NM = 0.08e-12

#: 45 nm leakage per bit in watts.
LEAKAGE_PER_BIT_45NM = 12e-12


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
        area_mm2=scale_area(area_45, 45, node_nm).value,
        read_power_mw=scale_power(read_power_45, 45, node_nm).value,
        leakage_mw=scale_power(leakage_45, 45, node_nm).value)
