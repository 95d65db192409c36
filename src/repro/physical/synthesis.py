"""Synthesized physical characteristics of ProSE components (Table 2).

The paper's flow is Chisel → Verilog → Synopsys synthesis in FreePDK 15 nm
→ scaled to 7 nm; input-buffer SRAMs come from OpenRAM at 45 nm, also
scaled to 7 nm.  We anchor a parametric model on the nine synthesized data
points of Table 2 and interpolate the rest of the (size, GELU, Exp) space
the same way the authors' flow would: quadratic-in-n array cost plus
per-ALU LUT deltas plus a linear-in-n input-buffer term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

#: A100 reference envelope for the %-columns of Table 2 (GA100 die).
A100_TDP_WATTS = 400.0
A100_DIE_AREA_MM2 = 826.0


@dataclass(frozen=True)
class ArrayCharacteristics:
    """Physical characteristics of one synthesized systolic array at 7 nm.

    Attributes:
        size: array dimension n.
        gelu / exp: which special-function LUTs are attached.
        frequency_mhz: post-synthesis maximum clock.
        power_mw: array power (excluding input buffer).
        inbuf_power_mw: array + input-buffer power.
        area_mm2: array area.
        inbuf_area_mm2: array + input-buffer area.
    """

    size: int
    gelu: bool
    exp: bool
    frequency_mhz: float
    power_mw: float
    inbuf_power_mw: float
    area_mm2: float
    inbuf_area_mm2: float

    @property
    def percent_a100_power(self) -> float:
        return 100.0 * self.inbuf_power_mw / 1000.0 / A100_TDP_WATTS

    @property
    def percent_a100_area(self) -> float:
        return 100.0 * self.inbuf_area_mm2 / A100_DIE_AREA_MM2


#: Table 2 verbatim: (size, gelu, exp) -> (freq MHz, power mW, +InBuf power,
#: area mm², +InBuf area).
TABLE2_ROWS: Dict[Tuple[int, bool, bool], Tuple[float, float, float, float, float]] = {
    (16, False, False): (1977.1, 249.3, 268.6, 0.183, 0.213),
    (16, False, True):  (925.2, 260.2, 279.5, 0.190, 0.221),
    (16, True, False):  (887.1, 255.1, 274.4, 0.187, 0.217),
    (32, False, False): (1707.1, 802.6, 841.2, 0.706, 0.766),
    (32, False, True):  (886.8, 830.0, 868.5, 0.725, 0.786),
    (32, True, False):  (870.3, 808.4, 847.0, 0.719, 0.779),
    (64, False, False): (1626.1, 2552.1, 2629.1, 2.788, 2.908),
    (64, False, True):  (858.1, 2578.2, 2655.2, 2.829, 2.949),
    (64, True, False):  (860.4, 2514.8, 2591.8, 2.816, 2.936),
    (64, True, True):   (858.1, 2585.8, 2662.9, 2.863, 2.983),
}


def _quadratic_fit(points: Dict[int, float]) -> Tuple[float, float, float]:
    """Fit value = a·n² + b·n + c through three (n, value) anchors."""
    sizes = sorted(points)
    matrix = np.array([[n * n, n, 1.0] for n in sizes])
    values = np.array([points[n] for n in sizes])
    a, b, c = np.linalg.solve(matrix, values)
    return float(a), float(b), float(c)


_BASE_POWER_FIT = _quadratic_fit({n: TABLE2_ROWS[(n, False, False)][1]
                                  for n in (16, 32, 64)})
_BASE_AREA_FIT = _quadratic_fit({n: TABLE2_ROWS[(n, False, False)][3]
                                 for n in (16, 32, 64)})

#: Input-buffer deltas are linear in n (the buffer width is one array row).
_INBUF_POWER_PER_ROW = np.mean([
    (TABLE2_ROWS[(n, False, False)][2] - TABLE2_ROWS[(n, False, False)][1]) / n
    for n in (16, 32, 64)])
_INBUF_AREA_PER_ROW = np.mean([
    (TABLE2_ROWS[(n, False, False)][4] - TABLE2_ROWS[(n, False, False)][3]) / n
    for n in (16, 32, 64)])

#: Per-ALU LUT deltas (one LUT replica per SIMD ALU, i.e. per row).
_EXP_POWER_PER_ALU = np.mean([
    (TABLE2_ROWS[(n, False, True)][1] - TABLE2_ROWS[(n, False, False)][1]) / n
    for n in (16, 32, 64)])
_EXP_AREA_PER_ALU = np.mean([
    (TABLE2_ROWS[(n, False, True)][3] - TABLE2_ROWS[(n, False, False)][3]) / n
    for n in (16, 32, 64)])
_GELU_POWER_PER_ALU = np.mean([
    max(TABLE2_ROWS[(n, True, False)][1] - TABLE2_ROWS[(n, False, False)][1],
        0.0) / n
    for n in (16, 32, 64)])
_GELU_AREA_PER_ALU = np.mean([
    (TABLE2_ROWS[(n, True, False)][3] - TABLE2_ROWS[(n, False, False)][3]) / n
    for n in (16, 32, 64)])

#: Frequencies by capability (LUT-equipped arrays close at the SIMD clock).
_MATMUL_FREQ_FIT = {16: 1977.1, 32: 1707.1, 64: 1626.1}
_LUT_FREQ_FLOOR = 858.1


def characteristics(size: int, gelu: bool = False, exp: bool = False
                    ) -> ArrayCharacteristics:
    """Physical characteristics for an arbitrary (size, GELU, Exp) array.

    Exact Table 2 rows are returned verbatim; other points interpolate the
    anchored parametric model.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    key = (size, gelu, exp)
    if key in TABLE2_ROWS:
        freq, power, inbuf_power, area, inbuf_area = TABLE2_ROWS[key]
        return ArrayCharacteristics(size, gelu, exp, freq, power,
                                    inbuf_power, area, inbuf_area)

    a, b, c = _BASE_POWER_FIT
    power = a * size * size + b * size + c
    a, b, c = _BASE_AREA_FIT
    area = a * size * size + b * size + c
    if gelu:
        power += _GELU_POWER_PER_ALU * size
        area += _GELU_AREA_PER_ALU * size
    if exp:
        power += _EXP_POWER_PER_ALU * size
        area += _EXP_AREA_PER_ALU * size
    if gelu or exp:
        frequency = _LUT_FREQ_FLOOR
    else:
        known = sorted(_MATMUL_FREQ_FIT)
        frequency = float(np.interp(size, known,
                                    [_MATMUL_FREQ_FIT[n] for n in known]))
    inbuf_power = power + _INBUF_POWER_PER_ROW * size
    inbuf_area = area + _INBUF_AREA_PER_ROW * size
    return ArrayCharacteristics(size, gelu, exp, frequency, max(power, 0.0),
                                max(inbuf_power, 0.0), max(area, 0.0),
                                max(inbuf_area, 0.0))


def table2() -> Tuple[ArrayCharacteristics, ...]:
    """All rows of Table 2, in the paper's order."""
    return tuple(characteristics(size, gelu, exp)
                 for (size, gelu, exp) in sorted(TABLE2_ROWS))
