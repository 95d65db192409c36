"""Input-buffer capacity of one systolic array.

The paper synthesizes the input buffers with OpenRAM at a 45 nm PDK and
scales the results to 7 nm; Table 2's input-buffer columns come from
those synthesis anchors (:mod:`repro.physical.synthesis`).  What the
rest of the model needs from the buffers is their capacity, used by the
memory-footprint profile.  The parametric SRAM macro model lives with
the test oracles (``tests/oracles/sram.py``).
"""

from __future__ import annotations


def input_buffer_bits(array_size: int, depth: int = 8,
                      element_bits: int = 16) -> int:
    """Capacity of one array's streaming input buffers.

    Two operand buffers (A and B), each ``depth`` entries of one
    ``array_size``-wide bfloat16 slice (Figure 10a), plus the partial input
    buffer holding one operand strip for local-dataflow reuse (Figure 11d,
    sized for a k=768 strip).
    """
    streaming = 2 * depth * array_size * element_bits
    partial = array_size * 768 * element_bits
    return streaming + partial
