"""Unit tests for the levelized two-phase simulator."""

import pytest

from repro.errors import HardwareModelError, SimulationError
from repro.hdl.netlist import Circuit
from repro.hdl.registers import _drive
from repro.hdl.simulator import Simulator


def _toggler():
    """A 1-bit toggle flip-flop circuit."""
    c = Circuit("tog")
    d = c.new_wire("d")
    q = c.dff(d, name="t")
    _drive(c, d, c.not_(q))
    return c, q


class TestCombinational:
    def test_settle_propagates(self):
        c = Circuit()
        a = c.add_input("a")
        b = c.add_input("b")
        out = c.xor(c.and_(a, b), c.or_(a, b))
        sim = Simulator(c)
        for av, bv in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            sim.poke(a, av)
            sim.poke(b, bv)
            sim.settle()
            assert sim.peek(out) == ((av & bv) ^ (av | bv))

    def test_constants(self):
        c = Circuit()
        out = c.and_(c.const1, c.not_(c.const0))
        sim = Simulator(c)
        sim.settle()
        assert sim.peek(out) == 1

    def test_deep_chain_depth(self):
        c = Circuit()
        w = c.add_input("a")
        for _ in range(10):
            w = c.not_(w)
        sim = Simulator(c)
        assert sim.max_depth == 10

    def test_combinational_loop_detected(self):
        c = Circuit()
        a = c.new_wire("a")
        b = c.not_(a)
        # close the loop: drive a from b via a BUF.
        _drive(c, a, b)
        with pytest.raises(HardwareModelError, match="loop"):
            Simulator(c)


class TestSequential:
    def test_toggle(self):
        c, q = _toggler()
        sim = Simulator(c)
        sim.reset()
        values = []
        for _ in range(4):
            sim.step()
            values.append(sim.peek(q))
        assert values == [1, 0, 1, 0]

    def test_enable_gates_capture(self):
        c = Circuit()
        d = c.add_input("d")
        en = c.add_input("en")
        q = c.dff(d, enable=en)
        sim = Simulator(c)
        sim.reset()
        sim.poke(d, 1)
        sim.poke(en, 0)
        sim.step()
        assert sim.peek(q) == 0, "disabled FF must hold"
        sim.poke(en, 1)
        sim.step()
        assert sim.peek(q) == 1

    def test_clear_dominates_enable(self):
        c = Circuit()
        d = c.add_input("d")
        en = c.add_input("en")
        clr = c.add_input("clr")
        q = c.dff(d, enable=en, clear=clr)
        sim = Simulator(c)
        sim.poke(d, 1)
        sim.poke(en, 1)
        sim.poke(clr, 0)
        sim.step()
        assert sim.peek(q) == 1
        sim.poke(clr, 1)
        sim.poke(en, 0)  # enable low; clear must still act
        sim.step()
        assert sim.peek(q) == 0

    def test_reset_loads_reset_values(self):
        c = Circuit()
        d = c.add_input("d")
        q1 = c.dff(d, reset_value=1)
        q0 = c.dff(d, reset_value=0)
        sim = Simulator(c)
        sim.poke(d, 0)
        sim.run(3)
        sim.reset()
        assert sim.peek(q1) == 1 and sim.peek(q0) == 0
        assert sim.cycle == 0

    def test_captures_are_simultaneous(self):
        """A 2-stage shift: both FFs capture old values on the same edge."""
        c = Circuit()
        a = c.add_input("a")
        q1 = c.dff(a, name="s1")
        q2 = c.dff(q1, name="s2")
        sim = Simulator(c)
        sim.reset()
        sim.poke(a, 1)
        sim.step()
        assert (sim.peek(q1), sim.peek(q2)) == (1, 0)
        sim.poke(a, 0)
        sim.step()
        assert (sim.peek(q1), sim.peek(q2)) == (0, 1)


class TestPokePeek:
    def test_bus_roundtrip(self):
        c = Circuit()
        bus = c.add_input("v", 8)
        sim = Simulator(c)
        sim.poke(bus, 0xA5)
        assert sim.peek(bus) == 0xA5

    def test_bus_overflow_rejected(self):
        c = Circuit()
        bus = c.add_input("v", 4)
        sim = Simulator(c)
        with pytest.raises(SimulationError):
            sim.poke(bus, 16)

    def test_single_wire_range(self):
        c = Circuit()
        a = c.add_input("a")
        sim = Simulator(c)
        with pytest.raises(SimulationError):
            sim.poke(a, 2)


class TestOneLaneForms:
    """The interpreted engine speaks the compiled engine's lane interface
    for its one lane, so one MMMC cycle loop drives both."""

    def test_poke_words_and_peek_lanes(self):
        from repro.hdl.compiled import pack_lanes

        c = Circuit()
        bus = c.add_input("a", 5)
        sim = Simulator(c)
        sim.poke_words(bus, pack_lanes([0b10110], 5))
        assert sim.peek(bus) == 0b10110
        assert sim.peek_lanes(bus) == [0b10110]
        assert sim.peek_lanes(bus[1]) == [1]

    def test_flip_takes_lane_zero_only(self):
        c, q = _toggler()
        sim = Simulator(c)
        sim.reset()
        before = sim.peek(q)
        sim.flip(q, lanes=[0])
        assert sim.peek(q) == before ^ 1
        sim.flip(q)
        assert sim.peek(q) == before
        with pytest.raises(SimulationError, match="out of range"):
            sim.flip(q, lanes=[1])
