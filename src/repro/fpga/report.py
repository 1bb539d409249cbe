"""Regeneration of the paper's Table 1 and Table 2.

Each row combines three ingredients, none of which is taken from the
paper's results:

* **cycle counts** — measured on the cycle-accurate simulators (and equal
  to the closed-form ``3l+4`` / ``4.5l²+12l+12`` formulas, which the test
  suite verifies independently);
* **slices** — the Virtex-E technology mapping of the fully elaborated
  MMMC netlist;
* **Tp** — the component-delay timing model over the mapped critical path.

The paper's reported values ride along (from
:mod:`repro.fpga.calibration`) for the side-by-side comparison printed by
the benchmarks and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.fpga.calibration import PAPER_TABLE1, PAPER_TABLE2
from repro.fpga.techmap import TechMapResult, technology_map
from repro.fpga.timing_model import TimingReport, estimate_clock_period
from repro.fpga.virtex import V812E, VirtexEDevice
from repro.systolic.mmmc_netlist import build_mmmc
from repro.systolic.timing import average_exponentiation_cycles, mmm_cycles

__all__ = [
    "ImplementationPoint",
    "implementation_report",
    "table1_rows",
    "table2_rows",
]


@dataclass(frozen=True)
class ImplementationPoint:
    """Model results for one bit length (one row of the paper's tables)."""

    l: int
    slices: int
    luts: int
    flip_flops: int
    tp_ns: float
    lut_depth: int
    mmm_cycles: int
    t_mmm_us: float
    ta_slice_ns: float
    avg_exp_cycles: float
    avg_exp_ms: float
    # Paper columns (None where the paper has no row).
    paper_slices: Optional[int] = None
    paper_tp_ns: Optional[float] = None
    paper_t_mmm_us: Optional[float] = None
    paper_ta: Optional[float] = None
    paper_avg_exp_ms: Optional[float] = None


_CACHE: Dict = {}


def implementation_report(
    l: int,
    mode: str = "paper",
    device: VirtexEDevice = V812E,
) -> ImplementationPoint:
    """Elaborate, map and time the full MMMC for bit length ``l``.

    ``mode="paper"`` (default here, unlike the simulators) reproduces the
    printed architecture so the area/latency comparison is apples to
    apples; pass ``mode="corrected"`` to cost the fixed design.
    """
    key = (l, mode, device.name)
    if key in _CACHE:
        return _CACHE[key]
    circuit = build_mmmc(l, mode=mode).circuit
    mapped: TechMapResult = technology_map(circuit, device)
    timing: TimingReport = estimate_clock_period(
        circuit, l, device, mapped=mapped
    )
    cycles = mmm_cycles(l) + (1 if mode == "corrected" else 0)
    tp = timing.clock_period_ns
    avg_cycles = average_exponentiation_cycles(l)
    p1 = PAPER_TABLE1.get(l)
    p2 = PAPER_TABLE2.get(l)
    point = ImplementationPoint(
        l=l,
        slices=mapped.slices,
        luts=mapped.luts,
        flip_flops=mapped.flip_flops,
        tp_ns=tp,
        lut_depth=timing.lut_depth,
        mmm_cycles=cycles,
        t_mmm_us=cycles * tp / 1e3,
        ta_slice_ns=mapped.slices * tp,
        avg_exp_cycles=avg_cycles,
        avg_exp_ms=avg_cycles * tp / 1e6,
        paper_slices=p2.slices if p2 else None,
        paper_tp_ns=(p2.tp_ns if p2 else (p1.tp_ns if p1 else None)),
        paper_t_mmm_us=p2.t_mmm_us if p2 else None,
        paper_ta=p2.ta_slice_ns if p2 else None,
        paper_avg_exp_ms=p1.avg_exp_ms if p1 else None,
    )
    _CACHE[key] = point
    return point


def table1_rows(
    bit_lengths: Sequence[int] = (32, 128, 256, 512, 1024), mode: str = "paper"
) -> List[ImplementationPoint]:
    """Rows of Table 1: Tp and average exponentiation time per bit length."""
    return [implementation_report(l, mode) for l in bit_lengths]


def table2_rows(
    bit_lengths: Sequence[int] = (32, 64, 128, 256, 512, 1024), mode: str = "paper"
) -> List[ImplementationPoint]:
    """Rows of Table 2: slices, Tp, TA and T_MMM per bit length."""
    return [implementation_report(l, mode) for l in bit_lengths]
