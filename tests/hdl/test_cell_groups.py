"""Recorded cell groups: when the compiled engine slices them, and when not.

``Circuit.instance`` records repeated cells; the compiled engine steps a
valid group with one word operation per template gate and falls back to
per-gate code for anything it cannot prove isomorphic or acyclic.  Either
way the simulation must match the interpreted engine.
"""

import random

import pytest

from repro.hdl import Circuit, Simulator
from repro.hdl.compiled import CompiledSimulator, clear_kernel_cache
from repro.hdl.gates import full_adder


def _shift_xor_row(width: int, record: bool = True) -> Circuit:
    """A register row where bit i takes ``q[i+1] XOR d[i]`` when enabled."""
    c = Circuit("row")
    d = c.add_input("d", width)
    en = c.add_input("en")
    nxt = [c.new_wire(f"n{i}") for i in range(width)]
    first = len(c.dffs)
    q = [c.dff(nxt[i], name=f"q{i}", enable=en) for i in range(width)]
    from repro.hdl.registers import _drive

    for i in range(width):
        shifted = q[i + 1] if i + 1 < width else c.const0
        if record:
            with c.instance("row", i, dffs=(first + i,), shifted=shifted, d=d[i], en=en):
                _drive(c, nxt[i], c.xor(shifted, d[i], name=f"x{i}"))
        else:
            _drive(c, nxt[i], c.xor(shifted, d[i], name=f"x{i}"))
    c.mark_output("q", q)
    c.validate()
    return c, d, en, q


def _ripple(width: int) -> Circuit:
    """A ripple-carry adder recorded as a group: bit i feeds bit i+1."""
    c = Circuit("ripple")
    a = c.add_input("a", width)
    b = c.add_input("b", width)
    carry = c.const0
    outs = []
    for i in range(width):
        with c.instance("fa", i, a=a[i], b=b[i], cin=carry):
            s, carry = full_adder(c, a[i], b[i], carry, name=f"fa{i}")
        outs.append(c.dff(s, name=f"s{i}"))
    c.mark_output("s", outs)
    c.validate()
    return c, a, b, outs


def _run_both(circuit, lanes, drive, observe, cycles=12):
    interp = [Simulator(circuit) for _ in range(lanes)]
    comp = CompiledSimulator(circuit, lanes=lanes)
    for sim in interp:
        sim.reset()
    comp.reset()
    for cycle in range(cycles):
        drive(cycle, interp, comp)
        for sim in interp:
            sim.step()
        comp.step()
        assert comp.peek_lanes(observe) == [sim.peek(observe) for sim in interp]
    return comp


@pytest.mark.parametrize("lanes", [1, 5])
def test_recorded_row_compiles_sliced_and_matches_interpreter(lanes):
    circuit, d, en, q = _shift_xor_row(7)
    rng = random.Random(lanes)

    def drive(cycle, interp, comp):
        vals = [rng.getrandbits(7) for _ in range(lanes)]
        ens = [rng.getrandbits(1) for _ in range(lanes)]
        for k, sim in enumerate(interp):
            sim.poke(d, vals[k])
            sim.poke(en, ens[k])
        comp.poke_lanes(d, vals)
        comp.poke_lanes(en, ens)

    comp = _run_both(circuit, lanes, drive, q)
    assert comp.kernel.banks, "the row should live in slot words"
    plain, *_ = _shift_xor_row(7, record=False)
    assert plain.structural_key() != circuit.structural_key()


def test_combinational_chain_falls_back_to_per_gate():
    circuit, a, b, s = _ripple(6)
    rng = random.Random(3)

    def drive(cycle, interp, comp):
        va, vb = rng.getrandbits(6), rng.getrandbits(6)
        for sim in interp + [comp]:
            sim.poke(a, va)
            sim.poke(b, vb)

    comp = _run_both(circuit, 1, drive, s)
    assert not comp.kernel.banks


def test_non_isomorphic_group_and_watch_all_compile_per_gate():
    circuit, d, en, q = _shift_xor_row(5)
    clear_kernel_cache()
    assert not CompiledSimulator(circuit, watch="all").kernel.banks
    # Recording a different cell under the same group name breaks the template.
    with circuit.instance("row", 5, en=en):
        circuit.and_(en, en, name="odd")
    assert not CompiledSimulator(circuit).kernel.banks
