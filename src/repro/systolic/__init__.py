"""The paper's core contribution: the systolic Montgomery multiplier.

Layers (bottom-up, matching Section 4 of the paper):

* :mod:`repro.systolic.cells` — behavioral models of the four cell types
  (Fig. 1), i.e. the digit recurrences Eqs. (4)–(9).
* :mod:`repro.systolic.cell_netlists` — the same cells as gate netlists
  with exactly the paper's gate inventory.
* :mod:`repro.systolic.schedule` — the ``2i + j`` wavefront schedule.
* :mod:`repro.systolic.array` — cycle-accurate register-transfer model of
  the complete linear array (Fig. 2), NumPy-vectorized across cells.
* :mod:`repro.systolic.array_netlist` — the complete array as one flat
  gate netlist (census + gate-level simulation).
* :mod:`repro.systolic.controller` — the ASM of Fig. 4.
* :mod:`repro.systolic.mmmc` — the full Montgomery Modular Multiplication
  Circuit of Fig. 3 (controller + datapath), cycle-accurate.
* :mod:`repro.systolic.exponentiator` — the modular exponentiator of
  Section 4.5 built on the MMMC.
* :mod:`repro.systolic.timing` — the paper's closed-form cycle formulas.
* :mod:`repro.systolic.substrate` — the engine names (``golden``,
  ``behavioral``, ``netlist``, ``netlist-interpreted``) every API and
  subcommand checks its ``engine`` against.
"""

from repro.systolic.cells import (
    regular_cell,
    rightmost_cell,
    first_bit_cell,
    leftmost_cell,
)
from repro.systolic.array import SystolicArrayRTL
from repro.systolic.mmmc import MMMC
from repro.systolic.exponentiator import ModularExponentiator
from repro.systolic.timing import (
    mmm_cycles,
    mmm_cycles_corrected,
    precomputation_cycles,
    postprocessing_cycles,
    exponentiation_cycle_bounds,
    average_exponentiation_cycles,
)
from repro.systolic.pipeline import exponentiation_cycles_overlapped
from repro.systolic.highradix_machine import HighRadixMachine
from repro.systolic.gf2_array import Gf2ArrayBroadcast, Gf2ArraySystolic

__all__ = [
    "regular_cell",
    "rightmost_cell",
    "first_bit_cell",
    "leftmost_cell",
    "SystolicArrayRTL",
    "MMMC",
    "ModularExponentiator",
    "mmm_cycles",
    "mmm_cycles_corrected",
    "precomputation_cycles",
    "postprocessing_cycles",
    "exponentiation_cycle_bounds",
    "average_exponentiation_cycles",
    "exponentiation_cycles_overlapped",
    "HighRadixMachine",
    "Gf2ArrayBroadcast",
    "Gf2ArraySystolic",
]
