"""Single-bit fault injection into the cycle-accurate array.

Two purposes:

1. **Dependability study** — transient upsets (SEUs) are the classic FPGA
   concern; this harness measures which fraction of single-bit register
   flips corrupt a Montgomery product, per register class and cycle.
2. **Microarchitecture validation** — the RTL model's correctness rests
   on the *shadow-lattice* argument: every register alternates between a
   productive value and a harmless interleaved one.  If the argument is
   right, flipping a register during its shadow phase must NEVER change
   the result, while flipping a live value that is still to be consumed
   almost always must.  :func:`fault_campaign` measures exactly that, and
   the tests pin the prediction down.

Injection model: after the clock edge of the chosen cycle, one register
bit is inverted; the multiplication then runs to completion and the
result is compared against the fault-free value.

Three engines (:data:`FAULT_ENGINES`) share the same :class:`FaultSite`
addressing: ``"behavioral"`` flips registers of the vectorized
:class:`SystolicArrayRTL` directly in its Python state;
``"netlist-interpreted"`` flips real DFF outputs of the full Fig. 3
netlist (:class:`~repro.systolic.mmmc_netlist.GateLevelMMMC`) via
:meth:`GateLevelMMMC.schedule_fault`; ``"netlist"`` does the same on the
codegen'd bit-sliced engine, proving the closure-cell register state is
as injectable as the interpreted value array.

The netlist engines count cycles from the first post-load clock edge, so a
site's ``cycle`` lands in the MMMC's ``3l+4`` (corrected) datapath
window rather than the bare array's; corruption statistics per register
class remain directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import random

from repro.errors import ParameterError, SimulationError
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.params import MontgomeryContext
from repro.systolic.array import SystolicArrayRTL
from repro.systolic.mmmc_netlist import GateLevelMMMC
from repro.systolic.substrate import HARDWARE_ENGINES, check_engine, make_mmmc

__all__ = [
    "FaultSite",
    "FaultOutcome",
    "inject_fault",
    "fault_campaign",
    "campaign_summary",
    "REGISTER_CLASSES",
    "FAULT_ENGINES",
]

#: Register classes addressable by the injector.
REGISTER_CLASSES = ("t", "c0", "c1", "x_pipe", "m_pipe", "result", "x_shift")

#: Simulation engines a campaign can target.
FAULT_ENGINES = HARDWARE_ENGINES


@dataclass(frozen=True)
class FaultSite:
    """One injection point: flip ``register[index]`` after ``cycle``'s edge."""

    cycle: int
    register: str
    index: int


@dataclass(frozen=True)
class FaultOutcome:
    """Result of injecting one fault into one multiplication."""

    site: FaultSite
    corrupted: bool
    detected: bool  # the leftmost-cell invariant check fired
    fault_free: int
    observed: Optional[int]


def _flip(arr: SystolicArrayRTL, site: FaultSite) -> None:
    reg = site.register
    if reg == "t":
        arr.t_reg[site.index] ^= 1
    elif reg == "c0":
        arr.c0_reg[site.index] ^= 1
    elif reg == "c1":
        arr.c1_reg[site.index] ^= 1
    elif reg == "x_pipe":
        arr.x_pipe[site.index] ^= 1
    elif reg == "m_pipe":
        arr.m_pipe[site.index] ^= 1
    elif reg == "result":
        arr.result_reg[site.index] ^= 1
    elif reg == "x_shift":
        arr.x_shift ^= 1 << site.index
    else:
        raise ParameterError(
            f"unknown register {reg!r}; choose from {REGISTER_CLASSES}"
        )


def _register_width(arr: SystolicArrayRTL, reg: str) -> int:
    widths = {
        "t": len(arr.t_reg),
        "c0": len(arr.c0_reg),
        "c1": len(arr.c1_reg),
        "x_pipe": len(arr.x_pipe),
        "m_pipe": len(arr.m_pipe),
        "result": len(arr.result_reg),
        "x_shift": arr.l + 1,
    }
    if reg not in widths:
        raise ParameterError(
            f"unknown register {reg!r}; choose from {REGISTER_CLASSES}"
        )
    return widths[reg]


def _mmmc_cycle_window(l: int, mode: str) -> int:
    """Cycles from first post-load edge to DONE in the gate-level MMMC."""
    return 3 * l + 5 if mode == "corrected" else 3 * l + 4


def _inject_fault_mmmc(
    mmmc: GateLevelMMMC, x: int, y: int, n: int, site: FaultSite, fault_free: int
) -> FaultOutcome:
    """Inject one fault through a (reused) gate-level MMMC instance."""
    widths = {reg: len(ws) for reg, ws in mmmc.fault_sites().items()}
    if site.register not in widths:
        raise ParameterError(
            f"unknown register {site.register!r}; choose from {REGISTER_CLASSES}"
        )
    window = _mmmc_cycle_window(mmmc.l, mmmc.mode)
    if not 0 <= site.cycle < window:
        raise ParameterError(
            f"cycle {site.cycle} outside MMMC datapath [0, {window})"
        )
    if not 0 <= site.index < widths[site.register]:
        raise ParameterError(f"index {site.index} out of range for {site.register}")
    mmmc.validate(x, y, n)  # surface operand errors before the try below
    detected = False
    observed: Optional[int] = None
    mmmc.schedule_fault(site)
    try:
        observed = mmmc.multiply(x, y, n).result
    except SimulationError:
        detected = True  # the top-cell overflow tap fired
    except ParameterError:
        detected = True  # DONE never rose — fail-stop, not silent
        mmmc.sim.reset()
    return FaultOutcome(
        site=site,
        corrupted=(observed != fault_free),
        detected=detected,
        fault_free=fault_free,
        observed=observed,
    )


def inject_fault(
    l: int,
    x: int,
    y: int,
    n: int,
    site: FaultSite,
    *,
    mode: str = "corrected",
    engine: str = "behavioral",
    _mmmc: Optional[GateLevelMMMC] = None,
) -> FaultOutcome:
    """Run one multiplication with one injected bit flip.

    ``engine`` picks the simulation substrate (see :data:`FAULT_ENGINES`).
    ``_mmmc`` lets :func:`fault_campaign` reuse one elaborated netlist
    across hundreds of injections instead of re-elaborating per site.
    """
    check_engine(engine, FAULT_ENGINES)
    ctx = MontgomeryContext(n)
    fault_free = montgomery_no_subtraction(ctx, x, y)
    if engine != "behavioral":
        mmmc = _mmmc
        if mmmc is None:
            mmmc = make_mmmc(engine, l, mode)
        return _inject_fault_mmmc(mmmc, x, y, n, site, fault_free)
    arr = SystolicArrayRTL(l, mode=mode)
    arr.load(x, y, n)
    if not 0 <= site.cycle < arr.datapath_cycles:
        raise ParameterError(
            f"cycle {site.cycle} outside datapath [0, {arr.datapath_cycles})"
        )
    if not 0 <= site.index < _register_width(arr, site.register):
        raise ParameterError(f"index {site.index} out of range for {site.register}")
    detected = False
    observed: Optional[int] = None
    try:
        for tau in range(arr.datapath_cycles):
            arr.step()
            if tau == site.cycle:
                _flip(arr, site)
        observed = arr.result_value()
    except SimulationError:
        detected = True
    return FaultOutcome(
        site=site,
        corrupted=(observed != fault_free),
        detected=detected,
        fault_free=fault_free,
        observed=observed,
    )


def fault_campaign(
    l: int,
    x: int,
    y: int,
    n: int,
    *,
    sites: Optional[Iterable[FaultSite]] = None,
    samples: int = 200,
    seed: int = 0,
    registers: Tuple[str, ...] = ("t", "c0", "c1", "x_pipe", "m_pipe"),
    mode: str = "corrected",
    engine: str = "behavioral",
) -> List[FaultOutcome]:
    """Inject many faults into the same multiplication.

    With ``sites=None``, samples ``samples`` random (cycle, register,
    index) sites from ``registers`` uniformly.  ``engine`` selects the
    simulation substrate (:data:`FAULT_ENGINES`); the netlist engines
    elaborate the netlist once and reuse it for every injection.
    """
    check_engine(engine, FAULT_ENGINES)
    mmmc: Optional[GateLevelMMMC] = None
    if engine != "behavioral":
        mmmc = make_mmmc(engine, l, mode)
    if sites is None:
        rng = random.Random(seed)
        if mmmc is not None:
            widths = {reg: len(ws) for reg, ws in mmmc.fault_sites().items()}
            cycle_window = _mmmc_cycle_window(l, mode)
            width_of = widths.__getitem__
        else:
            probe = SystolicArrayRTL(l, mode=mode)
            cycle_window = probe.datapath_cycles

            def width_of(reg: str) -> int:
                return _register_width(probe, reg)

        gen: List[FaultSite] = []
        for _ in range(samples):
            reg = rng.choice(registers)
            gen.append(
                FaultSite(
                    cycle=rng.randrange(cycle_window),
                    register=reg,
                    index=rng.randrange(width_of(reg)),
                )
            )
        sites = gen
    return [
        inject_fault(l, x, y, n, s, mode=mode, engine=engine, _mmmc=mmmc)
        for s in sites
    ]


def campaign_summary(outcomes: List[FaultOutcome]) -> Dict[str, Dict[str, float]]:
    """Per-register-class corruption statistics."""
    if not outcomes:
        raise ParameterError("no outcomes to summarize")
    by_reg: Dict[str, List[FaultOutcome]] = {}
    for o in outcomes:
        by_reg.setdefault(o.site.register, []).append(o)
    summary: Dict[str, Dict[str, float]] = {}
    for reg, outs in sorted(by_reg.items()):
        summary[reg] = {
            "injections": float(len(outs)),
            "corruption_rate": sum(o.corrupted for o in outs) / len(outs),
            "detection_rate": sum(o.detected for o in outs) / len(outs),
        }
    total = [o for o in outcomes]
    summary["ALL"] = {
        "injections": float(len(total)),
        "corruption_rate": sum(o.corrupted for o in total) / len(total),
        "detection_rate": sum(o.detected for o in total) / len(total),
    }
    return summary
