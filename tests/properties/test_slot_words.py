"""Bus-slot words on the simulators and through the exponentiation chain.

A lane group's Algorithm 3 chain keeps its operands as bus-slot words
(bit ``i·L + k`` = bus bit i of lane k) from the first product to the
last.  Three things make that safe, each checked here against an
independent path:

* ``poke_slots``/``peek_slots`` agree with the per-wire
  ``poke_lanes``/``peek_lanes`` on every bus the cycle loop drives or
  reads, on the cell-sliced kernel, the per-gate kernel and the one-lane
  interpreted simulator;
* the bit-sliced Walter comparator flags exactly the live lanes that
  ``walter_bound_ok`` rejects, at the ``2N`` boundary too;
* a group's exponentiation transposes each operand kind in once and the
  result out once, whatever the exponent's length.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SimulationError
from repro.hdl import compiled
from repro.hdl.compiled import CompiledSimulator, pack_slots, slots_below, unpack_slots
from repro.hdl.simulator import Simulator
from repro.montgomery.params import precompute_montgomery_constants
from repro.robustness.verify import walter_bound_ok
from repro.serving import ModExpRequest
from repro.serving.backends import RTLBackend
from repro.systolic.mmmc_netlist import GateLevelMMMC, build_mmmc


def _modulus(rng: random.Random, l: int) -> int:
    return (rng.getrandbits(l - 1) | (1 << (l - 1))) | 1


def _simulators(l: int, lanes: int):
    """``(ports, simulator, lanes)`` for the cell-sliced kernel, the
    per-gate kernel (cell record cleared) and, at one lane, the
    interpreted simulator."""
    sliced = GateLevelMMMC(l, simulator="compiled", lanes=lanes)
    out = [(sliced.ports, sliced.sim, lanes)]
    ports = build_mmmc(l)
    ports.circuit.cells.clear()
    # Unwatched pipeline registers would live in closure cells, which
    # peek_lanes cannot read.
    sim = CompiledSimulator(ports.circuit, lanes=lanes, watch=ports.core.x_pipe_regs)
    out.append((ports, sim, lanes))
    if lanes == 1:
        ports = build_mmmc(l)
        out.append((ports, Simulator(ports.circuit), 1))
    return out


def _poke_lanes(sim, bus, values):
    if isinstance(sim, Simulator):
        sim.poke(bus, values[0])
    else:
        sim.poke_lanes(bus, values)


def _buses(ports, sim):
    """Every bus the cycle loop drives or reads, a sub-bus that shares its
    bank with other wires, and a pipeline whose stages sit in two slots
    (when the kernel keeps it peekable: at small ``l`` the array cells
    form no group and the pipeline lives in closure cells)."""
    buses = {
        "x_in": ports.x_in,
        "y_in": ports.y_in,
        "n_in": ports.n_in,
        "result": ports.result,
        "result[2:5]": ports.result[2:5],
    }
    try:
        sim.peek_lanes(ports.core.x_pipe_regs)
        buses["x_pipe"] = ports.core.x_pipe_regs
    except SimulationError:
        pass
    return buses


class TestSimulatorsAgree:
    @given(
        st.integers(3, 40),
        st.sampled_from([1, 3, 64, 130]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_slots_equal_lanes(self, l, lanes, rng):
        for ports, sim, k in _simulators(l, lanes):
            sim.reset()
            buses = _buses(ports, sim)
            for name, bus in buses.items():
                width = len(bus)
                before = {n: sim.peek_lanes(b) for n, b in buses.items()}
                values = [rng.getrandbits(width) for _ in range(k)]
                _poke_lanes(sim, bus, values)
                assert sim.peek_slots(bus) == pack_slots(values, width), name
                values = [rng.getrandbits(width) for _ in range(k)]
                # Bits past the bus are ignored.
                junk = rng.getrandbits(8) << (width * k)
                sim.poke_slots(bus, pack_slots(values, width) | junk)
                assert sim.peek_lanes(bus) == values, name
                assert unpack_slots(sim.peek_slots(bus), width, k) == values
                # No other bus moved (the sub-bus moves its parent's bits).
                for other, b in buses.items():
                    if other != name and not set(b) & set(bus):
                        assert sim.peek_lanes(b) == before[other], (name, other)


@st.composite
def walter_lanes(draw):
    """A lane group's products and moduli; live lanes hit 2N-1, 2N, 2N+1
    and the padding lanes hold anything at all."""
    l = draw(st.integers(3, 66))
    lanes = draw(st.integers(1, 300))
    used = draw(st.integers(1, lanes))
    top = (1 << (l + 1)) - 1
    ns, ts = [], []
    for _ in range(lanes):
        n = draw(st.integers(1 << (l - 1), (1 << l) - 1)) | 1
        t = draw(
            st.one_of(
                st.sampled_from([2 * n - 1, 2 * n, 2 * n + 1, 0]),
                st.integers(0, top),
            )
        )
        ns.append(n)
        ts.append(t)
    return l, used, ns, ts


class TestWalterComparator:
    @given(walter_lanes())
    @settings(max_examples=200, deadline=None)
    def test_mask_equals_walter_bound_ok_per_lane(self, case):
        l, used, ns, ts = case
        lanes, width = len(ns), l + 1
        live = (1 << used) - 1
        # The backend's 2N word: every lane's N one slot up.
        two_n = pack_slots(ns, width) << lanes
        assert two_n == pack_slots([2 * n for n in ns], width)
        bad = live & ~slots_below(pack_slots(ts, width), two_n, width, lanes, live)
        for k in range(lanes):
            expect = k < used and not walter_bound_ok(ts[k], ns[k])
            assert (bad >> k) & 1 == expect, k


class TestOneTransposeEachWay:
    @pytest.mark.parametrize("k", [1, 5])
    def test_transposes_do_not_grow_with_the_exponent(self, k, monkeypatch):
        calls = {"pack": 0, "unpack": 0}
        real_pack, real_unpack = compiled.pack_slots, compiled.unpack_slots

        def pack(*args):
            calls["pack"] += 1
            return real_pack(*args)

        def unpack(*args):
            calls["unpack"] += 1
            return real_unpack(*args)

        monkeypatch.setattr(compiled, "pack_slots", pack)
        monkeypatch.setattr(compiled, "unpack_slots", unpack)
        rng = random.Random(k)
        n = _modulus(rng, 16)
        ctx = precompute_montgomery_constants(n)
        backend = RTLBackend()
        for exponent in (3, 65537, (1 << 63) | rng.getrandbits(63)):
            calls.update(pack=0, unpack=0)
            requests = [
                ModExpRequest(rng.randrange(n), exponent, n, request_id=str(i))
                for i in range(k)
            ]
            results = backend.execute_many([ctx] * k, requests)
            assert [r.value for r in results] == [pow(q.base, exponent, n) for q in requests]
            # In: base, R^2 mod N, N (the 1 is the lane mask); out: the result.
            assert calls == {"pack": 3, "unpack": 1}, exponent
