"""The complete systolic array as one flat gate netlist (Fig. 2).

:func:`elaborate_array` adds the cells (from
:mod:`repro.systolic.cell_netlists`), the T/C0/C1 registers and the
two-cycle x/m pipelines to an existing :class:`repro.hdl.netlist.Circuit`;
:func:`build_array` wraps it into a standalone circuit with its own phase
toggle, and :class:`GateLevelArray` adds a two-phase simulator with the
same ``run_multiplication`` semantics as the vectorized RTL model.  The
full MMMC of Fig. 3 embeds the same core via
:mod:`repro.systolic.mmmc_netlist`.

The netlist serves three purposes:

* **equivalence** — the test suite proves gate ≡ RTL ≡ golden;
* **census** — the gate inventory behind the paper's Section 4.3 area
  formula (the Fig. 2 benchmark prints formula vs. measurement);
* **technology mapping** — input to the Virtex-E slice/timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ParameterError, SimulationError
from repro.hdl.compiled import CompiledSimulator
from repro.hdl.netlist import Circuit, Wire
from repro.hdl.registers import _drive
from repro.hdl.simulator import Simulator
from repro.systolic.array import ARRAY_MODES, MultiplicationResult
from repro.systolic.cell_netlists import (
    build_first_bit_cell,
    build_leftmost_cell,
    build_no_modulus_cell,
    build_regular_cell,
    build_rightmost_cell,
    build_top_cell,
)
from repro.utils.bits import bits_to_int

__all__ = [
    "ArrayCore",
    "ArrayPorts",
    "elaborate_array",
    "build_array",
    "GateLevelArray",
    "SIMULATOR_ENGINES",
    "make_simulator",
]

SIMULATOR_ENGINES = ("interpreted", "compiled")


def make_simulator(circuit: Circuit, engine: str, *, lanes: int = 1, watch=(), probes=()):
    """Build the requested simulation engine over ``circuit``.

    ``"interpreted"`` returns the classic :class:`~repro.hdl.Simulator`
    (every wire peekable, required for waveform capture); ``"compiled"``
    returns a :class:`~repro.hdl.CompiledSimulator` with ``watch`` wires
    kept peekable and ``probes`` wires reachable through the codegenned
    flight-recorder tap (interpreted simulators can tap any wire, so the
    argument is only consulted by the compiled engine).  ``lanes > 1``
    requires the compiled engine.
    """
    if engine not in SIMULATOR_ENGINES:
        raise ParameterError(f"simulator must be one of {SIMULATOR_ENGINES}, got {engine!r}")
    if engine == "compiled":
        return CompiledSimulator(circuit, lanes=lanes, watch=watch, probes=probes)
    if lanes != 1:
        raise ParameterError("lane-packed simulation requires simulator='compiled'")
    return Simulator(circuit)


@dataclass
class ArrayCore:
    """Wires of an array core embedded in a larger circuit."""

    l: int
    mode: str
    t_regs: List[Wire]  # registered T(1..top_t), index 0 -> T(1)
    t_comb: List[Wire]  # combinational t outputs of cells 1..top_cell
    t_next_comb: Wire  # combinational top bit of the row sum
    m0: Wire  # combinational m output of the rightmost cell
    # Remaining state registers, exposed for fault-injection campaigns
    # (every DFF of the core is reachable through one of these lists).
    c0_regs: List[Wire]  # C0[0..top_cell-1]
    c1_regs: List[Wire]  # C1[1..top_cell-1], index 0 -> C1(1)
    x_pipe_regs: List[Wire]  # two-cycle x pipeline latches
    m_pipe_regs: List[Wire]  # two-cycle m pipeline latches
    # Overflow taps: the topmost cell's adder carry and the C1 register it
    # is XORed with.  Both high means the row sum needs a bit the XOR
    # cannot produce — the exact condition the behavioral model raises
    # SimulationError on (lost carry in paper mode, impossible-range
    # violation in corrected mode).  Taps on existing wires; no extra gates.
    overflow_carry: Wire
    overflow_c1: Wire

    @property
    def top_cell(self) -> int:
        return self.l + 1 if self.mode == "corrected" else self.l

    def overflow_message(self, cycle: int) -> str:
        if self.mode == "paper":
            return (
                f"paper-mode leftmost cell lost a carry at cycle {cycle}: "
                "row sum needs bit l+2 (intermediate T >= 2^(l+1)); the "
                "printed Fig. 2 array computes this operand set incorrectly"
            )
        return (
            f"corrected-mode top cell overflow at cycle {cycle}: "
            "S_i >= 2^(l+3) should be mathematically impossible"
        )

    def productive(self, cycle: int) -> bool:
        """True when the topmost cell computes a real row at ``cycle``.

        Mirrors ``SystolicArrayRTL._productive`` so netlist wrappers gate
        the overflow taps on the same cycles as the behavioral model.
        """
        cell = self.top_cell
        if (cycle - cell) % 2:
            return False
        row = (cycle - cell) // 2
        return 0 <= row <= self.l + 1


def elaborate_array(
    c: Circuit,
    x0: Wire,
    y: List[Wire],
    n: List[Wire],
    *,
    mode: str = "corrected",
    en_mul1: Wire,
    en_mul2: Wire,
    clear: Optional[Wire] = None,
    name: str = "arr",
) -> ArrayCore:
    """Add the array core to ``c``.

    Parameters
    ----------
    x0, y, n:
        Serial ``X(0)`` wire and the Y/N operand buses (``l+1`` wires).
    en_mul1 / en_mul2:
        Phase strobes: ``en_mul1`` is high on even (MUL1) cycles — it
        enables the m-pipeline latches — and ``en_mul2`` on odd (MUL2)
        cycles, enabling the x-pipeline.  The MMMC derives them from its
        controller state; the standalone array from a toggle FF.
    clear:
        Optional synchronous clear for the array state (the operand-load
        strobe of Fig. 3).  It must zero *all* array registers — T,
        carries and both pipelines — because the phase-gated top T
        register captures one shadow-lattice value before its first
        productive read; with every register zeroed at load that shadow
        value is provably 0 (the fresh-reset condition the equivalence
        proofs cover).  When None the registers are only cleared by the
        simulator's reset, so the circuit is single-shot.
    """
    l = len(y) - 1
    if l < 2:
        raise ParameterError(f"systolic array needs l >= 2, got {l}")
    if mode not in ARRAY_MODES:
        raise ParameterError(f"mode must be one of {ARRAY_MODES}, got {mode!r}")

    top_cell = l + 1 if mode == "corrected" else l
    top_t = top_cell + 1

    # State registers, created up front so cells can read them before the
    # driving logic exists (placeholder-D pattern; DFFs break the cycles).
    # The load strobe rides the flip-flops' dedicated SR pin (dominating
    # any enable), so clearing the whole array at load costs no fabric.
    t_d = [c.new_wire(f"{name}.T.d{j}") for j in range(1, top_t + 1)]
    t_q = [
        c.dff(
            t_d[j - 1],
            name=f"{name}.T[{j}]",
            # Top T register is the self-loop register: phase-gated.
            enable=(en_mul2 if top_cell % 2 else en_mul1) if j == top_t else None,
            clear=clear,
        )
        for j in range(1, top_t + 1)
    ]

    def T(j: int) -> Wire:
        return t_q[j - 1]

    c0_d = [c.new_wire(f"{name}.C0.d{j}") for j in range(top_cell)]
    c0_q = [c.dff(c0_d[j], name=f"{name}.C0[{j}]", clear=clear) for j in range(top_cell)]
    c1_d = [c.new_wire(f"{name}.C1.d{j}") for j in range(1, top_cell)]
    c1_q = [
        c.dff(c1_d[j - 1], name=f"{name}.C1[{j}]", clear=clear)
        for j in range(1, top_cell)
    ]

    def C1(j: int) -> Wire:
        return c1_q[j - 1]

    pipe_len = max(l // 2, 1)
    m_d = [c.new_wire(f"{name}.MP.d{k}") for k in range(pipe_len)]
    m_q = [
        c.dff(m_d[k], name=f"{name}.MP[{k}]", enable=en_mul1, clear=clear)
        for k in range(pipe_len)
    ]
    x_d = [c.new_wire(f"{name}.XP.d{k}") for k in range(pipe_len)]
    x_q = [
        c.dff(x_d[k], name=f"{name}.XP[{k}]", enable=en_mul2, clear=clear)
        for k in range(pipe_len)
    ]

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    t_comb: List[Wire] = []
    right = build_rightmost_cell(c, T(1), x0, y[0], name=f"{name}.cell0")
    first = build_first_bit_cell(
        c, T(2), x0, y[1], m_q[0], n[1], c0_q[0], name=f"{name}.cell1"
    )
    t_comb.append(first.t)
    c0_outs = {0: right.c0, 1: first.c0}
    c1_outs = {1: first.c1}
    for j in range(2, l):
        # The l-2 regular cells are one recorded group (Fig. 1a wired by the
        # 2i+j schedule of Fig. 2); the compiled engine steps them together.
        ports = dict(
            t_in=T(j + 1),
            x=x_q[(j - 2) // 2],
            y=y[j],
            m=m_q[(j - 1) // 2],
            n=n[j],
            c0_in=c0_q[j - 1],
            c1_in=C1(j - 1),
        )
        with c.instance(f"{name}.regular", j - 2, **ports):
            cell = build_regular_cell(c, *ports.values(), name=f"{name}.cell{j}")
        t_comb.append(cell.t)
        c0_outs[j] = cell.c0
        c1_outs[j] = cell.c1
    x_l = x_q[(l - 2) // 2]
    if mode == "paper":
        left = build_leftmost_cell(
            c, T(l + 1), x_l, y[l], c0_q[l - 1], C1(l - 1), name=f"{name}.cell{l}"
        )
        t_comb.append(left.t)
        t_next = left.t_next
        overflow_carry, overflow_c1 = left.carry, C1(l - 1)
    else:
        nom = build_no_modulus_cell(
            c, T(l + 1), x_l, y[l], c0_q[l - 1], C1(l - 1), name=f"{name}.cell{l}"
        )
        t_comb.append(nom.t)
        c0_outs[l] = nom.c0
        c1_outs[l] = nom.c1
        top = build_top_cell(c, T(l + 2), c0_q[l], C1(l), name=f"{name}.cell{l + 1}")
        t_comb.append(top.t)
        t_next = top.t_next
        overflow_carry, overflow_c1 = top.carry, C1(l)

    # ------------------------------------------------------------------
    # Close the register input placeholders.
    # ------------------------------------------------------------------
    for j in range(1, top_t):  # T(1..top_t-1) <- t outputs of cells 1..top
        _drive(c, t_d[j - 1], t_comb[j - 1])
    _drive(c, t_d[top_t - 1], t_next)
    for j in range(top_cell):
        _drive(c, c0_d[j], c0_outs[j])
    for j in range(1, top_cell):
        _drive(c, c1_d[j - 1], c1_outs[j])
    _drive(c, m_d[0], right.m)
    for k in range(1, pipe_len):
        _drive(c, m_d[k], m_q[k - 1])
    _drive(c, x_d[0], x0)
    for k in range(1, pipe_len):
        _drive(c, x_d[k], x_q[k - 1])

    return ArrayCore(
        l=l,
        mode=mode,
        t_regs=t_q,
        t_comb=t_comb,
        t_next_comb=t_next,
        m0=right.m,
        c0_regs=c0_q,
        c1_regs=c1_q,
        x_pipe_regs=x_q,
        m_pipe_regs=m_q,
        overflow_carry=overflow_carry,
        overflow_c1=overflow_c1,
    )


@dataclass
class ArrayPorts:
    """Handles into a standalone array netlist."""

    circuit: Circuit
    core: ArrayCore
    x0: Wire
    y: List[Wire]
    n: List[Wire]
    phase: Wire  # 0 during MUL1 (even) cycles, 1 during MUL2

    @property
    def l(self) -> int:
        return self.core.l

    @property
    def mode(self) -> str:
        return self.core.mode


def build_array(l: int, mode: str = "corrected", name: str = "systolic") -> ArrayPorts:
    """Elaborate the array as a standalone circuit with its own phase toggle."""
    c = Circuit(f"{name}_l{l}_{mode}")
    x0 = c.add_input("x0")
    y = c.add_input("y", l + 1)
    n = c.add_input("n", l + 1)
    # Phase toggle: q=0 during the first (MUL1) cycle, flips every cycle.
    phase_d = c.new_wire("phase.d")
    phase = c.dff(phase_d, name="phase")
    _drive(c, phase_d, c.not_(phase, name="phase.n"))
    not_phase = c.not_(phase, name="phase.inv")
    core = elaborate_array(
        c, x0, y, n, mode=mode, en_mul1=not_phase, en_mul2=phase, name="arr"
    )
    c.mark_output("t", core.t_regs)
    c.mark_output("m0", core.m0)
    c.validate()
    return ArrayPorts(circuit=c, core=core, x0=x0, y=y, n=n, phase=phase)


class GateLevelArray:
    """Gate-level twin of :class:`~repro.systolic.array.SystolicArrayRTL`.

    Wraps the elaborated netlist in a :class:`~repro.hdl.Simulator` and
    drives the serial ``X(0)`` input with the operand bits on the correct
    cycles (bit ``i`` during cycles ``2i`` and ``2i+1``), collecting the
    result along the output diagonal exactly as the RTL model does.
    Practical for ``l`` up to a few hundred; the equivalence tests use
    small ``l`` with randomized operands.
    """

    def __init__(self, l: int, mode: str = "corrected", simulator: str = "interpreted") -> None:
        self.ports = build_array(l, mode=mode)
        core = self.ports.core
        # Everything run_multiplication peeks must stay materialized when
        # the codegen engine folds the combinational cloud (the overflow C1
        # register would otherwise live in a closure cell).
        watch = tuple(core.t_comb) + (core.t_next_comb, core.overflow_carry, core.overflow_c1)
        self.sim = make_simulator(self.ports.circuit, simulator, watch=watch)
        self.simulator = simulator
        self.l = l
        self.mode = mode

    @property
    def datapath_cycles(self) -> int:
        return 2 * (self.l + 1) + self.ports.core.top_cell + 1

    def run_multiplication(self, x: int, y: int, n: int) -> MultiplicationResult:
        """Cycle-accurate multiplication through the gate-level simulator."""
        l = self.l
        if n.bit_length() > l or n % 2 == 0 or n < 3:
            raise ParameterError(f"bad modulus {n} for l={l}")
        for name, v in (("x", x), ("y", y)):
            if not 0 <= v < 2 * n:
                raise ParameterError(f"{name}={v} outside [0, 2N) for N={n}")
        sim, core = self.sim, self.ports.core
        sim.reset()
        sim.poke(self.ports.y, y)
        sim.poke(self.ports.n, n)
        result_bits = [0] * (l + 1)
        first = 2 * l + 3
        last_b = l if self.mode == "corrected" else l - 1
        for tau in range(self.datapath_cycles):
            sim.poke(self.ports.x0, (x >> (tau // 2)) & 1)
            # Pre-edge C1 register read, then the fused cycle; combinational
            # taps below reflect this cycle's settle (pre-edge values).
            c1 = sim.peek(core.overflow_c1) if core.productive(tau) else 0
            sim.step()
            # Overflow taps: carry AND C1 at the topmost cell is the same
            # row-sum >= 4 condition the behavioral model raises on.
            if c1 and sim.peek(core.overflow_carry):
                raise SimulationError(core.overflow_message(tau))
            # Diagonal capture from the combinational outputs (what the
            # per-bit-enabled datapath T register of Fig. 3 latches).
            if first <= tau <= first + last_b:
                result_bits[tau - first] = sim.peek(core.t_comb[tau - first])
            if self.mode == "paper" and tau == 3 * l + 2:
                result_bits[l] = sim.peek(core.t_next_comb)
        return MultiplicationResult(
            value=bits_to_int(result_bits),
            datapath_cycles=self.datapath_cycles,
            total_cycles=self.datapath_cycles + 1,
        )
