"""Property: the cell-sliced kernel is the per-gate kernel, cycle for cycle.

The MMMC netlist records its repeated cells (the regular array cells,
the X shift-register bits, the token chain and the RESULT bits), and the
compiled engine steps each group with one word operation per template
gate on slot words.  The reference is the same netlist compiled with its
cell record dropped, which compiles one operation per gate.  Every
cycle, the full register state vector, the flight-recorder capture
tuple and the directly read taps (controller state, overflow taps, DONE)
must agree, at widths 3..10, 16, 32 and 64, in both array modes, on 1,
3, 64 and 256 lanes with padded lanes and edge operands.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.compiled import CompiledSimulator
from repro.systolic.mmmc_netlist import GateLevelMMMC, build_mmmc

WIDTHS = (3, 4, 5, 6, 7, 8, 9, 10, 16, 32, 64)
LANES = (1, 3, 64, 256)

_INSTANCES = {}


def per_gate_twin(gate: GateLevelMMMC) -> GateLevelMMMC:
    """``gate`` again, its simulator compiled from a group-free netlist.

    Same watch and probe layout as ``GateLevelMMMC`` builds, so every
    accessor and the capture tap line up wire for wire.
    """
    twin = GateLevelMMMC(gate.l, mode=gate.mode, simulator="compiled", lanes=gate.lanes)
    twin.ports.circuit.cells.clear()
    core, (s0, s1) = twin.ports.core, twin.ports.state
    twin.sim = CompiledSimulator(
        twin.ports.circuit,
        lanes=gate.lanes,
        watch=(core.overflow_carry, core.overflow_c1, s0, s1),
        probes=twin.probe_set.wire_indices,
    )
    twin.sim.reset()
    assert not twin.sim.kernel.banks and gate.sim.kernel.banks
    return twin


def _pair(l, mode, lanes):
    key = (l, mode, lanes)
    if key not in _INSTANCES:
        sliced = GateLevelMMMC(l, mode=mode, simulator="compiled", lanes=lanes)
        _INSTANCES[key] = (sliced, per_gate_twin(sliced))
    return _INSTANCES[key]


@st.composite
def sweeps(draw, l):
    lanes = draw(st.sampled_from(LANES))
    used = draw(st.integers(1, lanes))
    odd = st.integers(3, (1 << l) - 1).map(lambda v: v | 1)
    ns, xs, ys = [], [], []
    for _ in range(min(used, 6)):
        n = draw(st.one_of(st.sampled_from((3, (1 << l) - 1)), odd))
        edge = st.sampled_from((0, 1, 2 * n - 1))
        ns.append(n)
        xs.append(draw(st.one_of(edge, st.integers(0, 2 * n - 1))))
        ys.append(draw(st.one_of(edge, st.integers(0, 2 * n - 1))))
    # Cycle the drawn lanes over the used ones, then pad with the last
    # operand set as multiply_lanes does.
    ns, xs, ys = ([v[k % len(v)] for k in range(used)] for v in (ns, xs, ys))
    pad = lanes - used
    return lanes, xs + xs[-1:] * pad, ys + ys[-1:] * pad, ns + ns[-1:] * pad


def _load(gate, xs, ys, ns):
    sim, p = gate.sim, gate.ports
    sim.reset()
    if gate.lanes == 1:
        sim.poke(p.x_in, xs[0])
        sim.poke(p.y_in, ys[0])
        sim.poke(p.n_in, ns[0])
    else:
        sim.poke_lanes(p.x_in, xs)
        sim.poke_lanes(p.y_in, ys)
        sim.poke_lanes(p.n_in, ns)
    sim.poke(p.start, 1)


@pytest.mark.parametrize("mode", ["paper", "corrected"])
@pytest.mark.parametrize("l", WIDTHS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_state_vector_matches_per_gate_kernel_every_cycle(l, mode, data):
    lanes, xs, ys, ns = data.draw(sweeps(l))
    sliced, ref = _pair(l, mode, lanes)
    taps = (sliced._s0_i, sliced._s1_i, sliced._c1_i, sliced._carry_i, sliced._done_i)
    for gate in (sliced, ref):
        _load(gate, xs, ys, ns)
    assert sliced.sim.state_vector() == ref.sim.state_vector()
    for cycle in range(3 * l + 8):
        for gate in (sliced, ref):
            gate.sim.step()
            if cycle == 0:
                gate.sim.poke(gate.ports.start, 0)
        assert sliced.sim.state_vector() == ref.sim.state_vector(), f"cycle {cycle}"
        assert sliced.sim.capture() == ref.sim.capture(), f"cycle {cycle}"
        assert [sliced.sim.values[w] for w in taps] == [ref.sim.values[w] for w in taps]
    assert sliced.sim.peek_lanes(sliced.ports.result) == ref.sim.peek_lanes(ref.ports.result)


def test_edge_cells_stay_per_gate():
    """Only the regular cells form the array group: the rightmost,
    first-bit, leftmost / no-modulus and top cells are never folded into
    the template, so no constant-input truth-table argument is needed."""
    for mode in ("paper", "corrected"):
        for l in (3, 8, 64):
            circuit = build_mmmc(l, mode).circuit
            regular = [c for c in circuit.cells if c.group == "arr.regular"]
            assert [c.index for c in regular] == list(range(l - 2))
            names = {circuit.wire_names[circuit.gates[g].output] for c in regular for g in c.gates}
            assert {n.split(".")[1] for n in names} == {f"cell{j}" for j in range(2, l)}
