"""Levelized two-phase simulator for :class:`repro.hdl.netlist.Circuit`.

The simulator evaluates a circuit the way synchronous hardware behaves:

1. **settle** — propagate primary inputs and flip-flop outputs through the
   combinational gates in topological order (computed once, reused every
   cycle);
2. **clock** — capture every flip-flop's D input into its Q output.

Combinational loops are detected at construction time and rejected; the
levelization also yields each gate's logic depth, which the Virtex-E timing
model uses to find the critical path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HardwareModelError, SimulationError
from repro.hdl.gates import GateKind, GATE_EVAL
from repro.hdl.netlist import Circuit, Wire
from repro.observability import OBS

__all__ = ["Simulator", "levelize"]


def levelize(circuit: Circuit) -> List[int]:
    """Topologically order a circuit's gate indices (combinational order).

    Shared by the interpreted :class:`Simulator` and the codegen engine in
    :mod:`repro.hdl.compiled`.  A combinational cycle raises
    :class:`~repro.errors.HardwareModelError` naming the stuck wires.
    """
    producers: Dict[int, int] = {}  # wire -> gate index
    for gi, g in enumerate(circuit.gates):
        producers[g.output] = gi
    indegree = [0] * len(circuit.gates)
    dependents: Dict[int, List[int]] = {gi: [] for gi in range(len(circuit.gates))}
    for gi, g in enumerate(circuit.gates):
        for w in g.inputs:
            src = producers.get(w)
            if src is not None:
                indegree[gi] += 1
                dependents[src].append(gi)
    ready = deque(gi for gi, d in enumerate(indegree) if d == 0)
    order: List[int] = []
    while ready:
        gi = ready.popleft()
        order.append(gi)
        for dep in dependents[gi]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)
    if len(order) != len(circuit.gates):
        stuck = [
            circuit.wire_names[circuit.gates[gi].output]
            for gi, d in enumerate(indegree)
            if d > 0
        ]
        raise HardwareModelError(
            f"combinational loop through: {stuck[:8]}" + ("..." if len(stuck) > 8 else "")
        )
    return order


class Simulator:
    """Cycle-accurate simulator bound to one circuit.

    Parameters
    ----------
    circuit:
        The netlist to simulate.  It is validated (no undriven wires) and
        levelized; a combinational cycle raises
        :class:`~repro.errors.HardwareModelError`.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self.values: List[int] = [0] * circuit.num_wires
        self.values[circuit.const1.index] = 1
        # One simulation per wire value; the MMMC cycle loop narrows
        # ``active_lanes`` on either engine (only the compiled one reads it).
        self.active_lanes = 1
        self._order = levelize(circuit)
        self.cycle = 0
        # Gate logic depth (1 = directly fed by registers/inputs/constants).
        self.gate_depth: Dict[int, int] = {}
        self._compute_depths()
        # Per-cycle evaluation plan, prebuilt once: (eval_fn, a_index,
        # b_index_or_None, output_index) per gate in topological order, so
        # settle() runs without per-gate dict lookups or attribute chasing.
        self._plan: Tuple[Tuple[object, int, Optional[int], int], ...] = tuple(
            (
                GATE_EVAL[g.kind],
                g.inputs[0],
                g.inputs[1] if len(g.inputs) > 1 else None,
                g.output,
            )
            for g in (circuit.gates[gi] for gi in self._order)
        )
        # DFF capture plan: (d, q, enable_or_None, clear_or_None).
        self._dff_plan: Tuple[Tuple[int, int, Optional[int], Optional[int]], ...] = tuple(
            (f.d, f.q, f.enable, f.clear) for f in circuit.dffs
        )

    def _compute_depths(self) -> None:
        c = self.circuit
        wire_depth: Dict[int, int] = {}
        for gi in self._order:
            g = c.gates[gi]
            d = 1 + max((wire_depth.get(w, 0) for w in g.inputs), default=0)
            self.gate_depth[gi] = d
            wire_depth[g.output] = d

    @property
    def max_depth(self) -> int:
        """Deepest combinational level (gate count on the longest path)."""
        return max(self.gate_depth.values(), default=0)

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def poke(self, wire_or_bus, value: int) -> None:
        """Drive a primary input wire (0/1) or bus (little-endian integer)."""
        if isinstance(wire_or_bus, Wire):
            if value not in (0, 1):
                raise SimulationError(f"single wire takes 0/1, got {value}")
            self.values[wire_or_bus.index] = value
            return
        bus: Sequence[Wire] = wire_or_bus
        if value < 0 or value >> len(bus):
            raise SimulationError(f"value {value} does not fit bus of width {len(bus)}")
        for i, w in enumerate(bus):
            self.values[w.index] = (value >> i) & 1

    def poke_slots(self, bus: Sequence[Wire], word: int) -> None:
        """One-lane form of :meth:`CompiledSimulator.poke_slots`.

        At one lane a bus-slot word is the bus value itself; bits at
        ``len(bus)`` and above are ignored.
        """
        for i, w in enumerate(bus):
            self.values[w.index] = (word >> i) & 1

    def peek_slots(self, bus: Sequence[Wire]) -> int:
        """One-lane form of :meth:`CompiledSimulator.peek_slots`."""
        return self.peek(bus)

    def peek_lanes(self, wire_or_bus) -> List[int]:
        """One-lane form of :meth:`CompiledSimulator.peek_lanes`."""
        return [self.peek(wire_or_bus)]

    def peek(self, wire_or_bus) -> int:
        """Read a wire (0/1) or a bus (little-endian integer)."""
        if isinstance(wire_or_bus, Wire):
            return self.values[wire_or_bus.index]
        acc = 0
        for i, w in enumerate(wire_or_bus):
            acc |= self.values[w.index] << i
        return acc

    def sampler(self, wire_indices: Sequence[int]):
        """Zero-argument tap returning the given wires' values as a tuple.

        The flight recorder's peek-based probe path: the closure captures
        the (in-place mutated) value array once, so sampling a cycle costs
        one list read per probed wire and no attribute lookups.  Every wire
        is peekable on the interpreted engine, so any index is a valid tap.
        """
        vals = self.values
        idx = tuple(wire_indices)
        return lambda: tuple(vals[i] for i in idx)

    def flip(self, wire: Wire, lanes: Optional[Sequence[int]] = None) -> None:
        """Invert one wire's current value (single-event-upset injection).

        Meaningful on register Qs between clock edges: the flipped value
        propagates through the next ``settle`` exactly as a particle
        strike on the flip-flop would.  Used by the fault-injection
        campaigns in :mod:`repro.analysis.fault` and the chaos layer.
        ``lanes`` is the one-lane form of the compiled engine's argument:
        ``None`` or ``[0]``.
        """
        if lanes is not None and list(lanes) != [0]:
            raise SimulationError(f"lanes {list(lanes)} out of range [0, 1)")
        self.values[wire.index] ^= 1

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Propagate through all combinational gates (phase 1)."""
        vals = self.values
        for fn, a, b, out in self._plan:
            if b is None:
                vals[out] = fn(vals[a])
            else:
                vals[out] = fn(vals[a], vals[b])
        if OBS.enabled:
            OBS.count("hdl.gate_evals", len(self._plan))
            OBS.record("hdl.gates_per_cycle", len(self._plan))

    def clock(self) -> None:
        """Capture every DFF (phase 2).  Captures are simultaneous.

        A DFF's ``clear`` strobe dominates its ``enable`` (the Virtex SR
        pin semantics the netlists rely on).
        """
        vals = self.values
        captures = []
        for d, q, en, clr in self._dff_plan:
            if clr is not None and vals[clr]:
                captures.append((q, 0))
                continue
            if en is not None and not vals[en]:
                continue
            captures.append((q, vals[d]))
        for q, v in captures:
            vals[q] = v
        self.cycle += 1
        if OBS.enabled:
            OBS.count("hdl.cycles")
            OBS.count("hdl.dff_captures", len(captures))
            if OBS.occupancy is not None:
                # Enable-gated capture fraction: how much of the register
                # file actually latched new state this cycle.
                OBS.occupancy.activity(
                    "hdl.dff_captures", len(captures), len(self._dff_plan)
                )

    def step(self) -> None:
        """One full clock cycle: settle, then capture."""
        self.settle()
        self.clock()

    def reset(self) -> None:
        """Synchronous reset: load every DFF's reset value; rewind the clock."""
        for f in self.circuit.dffs:
            self.values[f.q] = f.reset_value
        self.cycle = 0
        self.settle()

    def run(self, cycles: int) -> None:
        """Advance ``cycles`` full clock cycles."""
        for _ in range(cycles):
            self.step()
