"""Fault sites, probes and occupancy map onto the cell-sliced slot words.

In the cell-sliced kernel a register of the array, the X shift register,
the token chain or RESULT lives in one bit of a slot word (a two-cycle
pipeline stage in two).  ``flip``, ``capture`` and the accessors must
address those bits exactly as the per-gate kernel addresses its lane
words: a scheduled single-event upset at every fault site, on all lanes
or one, must leave the same final state and the same result (or the same
raise), the flight recorder must dump the same window, and the occupancy
samples must match.
"""

import random

import pytest

from repro.analysis.fault import FaultSite
from repro.errors import SimulationError
from repro.observability import observe
from repro.observability.flightrec import FlightRecorderHub, armed
from repro.observability.occupancy import OccupancyRecorder
from repro.systolic.mmmc_netlist import GateLevelMMMC
from tests.properties.test_cell_sliced_kernel import per_gate_twin

LANES = 3


def _operands(l, seed):
    rng = random.Random(seed)
    ns = [(rng.getrandbits(l - 1) | (1 << (l - 1))) | 1 for _ in range(LANES)]
    xs = [rng.randrange(2 * n) for n in ns]
    ys = [rng.randrange(2 * n) for n in ns]
    xs[0], ys[0] = 2 * ns[0] - 1, 2 * ns[0] - 1
    return xs, ys, ns


def _outcome(gate, xs, ys, ns):
    try:
        runs = gate.multiply_lanes(xs, ys, ns)
    except SimulationError as exc:
        return ("raise", str(exc), gate.sim.state_vector())
    return ([(r.result, r.cycles) for r in runs], gate.sim.state_vector())


@pytest.mark.parametrize("mode", ["paper", "corrected"])
@pytest.mark.parametrize("l", [6, 9])
def test_every_fault_site_flips_the_same_bits(l, mode):
    sliced = GateLevelMMMC(l, mode=mode, simulator="compiled", lanes=LANES)
    ref = per_gate_twin(sliced)
    xs, ys, ns = _operands(l, seed=l)
    rng = random.Random(f"sites-{l}-{mode}")
    sliced.sim.reset()
    clean = _outcome(sliced, xs, ys, ns)
    checked = corrupted = 0
    for register, wires in sliced.fault_sites().items():
        for index in range(len(wires)):
            site = FaultSite(cycle=rng.randrange(3 * l + 4), register=register, index=index)
            for lane in (None, rng.randrange(LANES)):
                outcomes = []
                for gate in (sliced, ref):
                    gate.sim.reset()
                    gate.schedule_fault(site, lane=lane)
                    outcomes.append(_outcome(gate, xs, ys, ns))
                assert outcomes[0] == outcomes[1], (site, lane)
                checked += 1
                corrupted += outcomes[0] != clean
    assert checked == 2 * sum(len(w) for w in sliced.fault_sites().values())
    assert corrupted > checked // 4  # the flips really land


@pytest.mark.parametrize("mode", ["paper", "corrected"])
def test_flight_recorder_dumps_the_same_window(mode):
    l = 8
    sliced = GateLevelMMMC(l, mode=mode, simulator="compiled", lanes=LANES)
    ref = per_gate_twin(sliced)
    xs, ys, ns = _operands(l, seed=7)
    windows = []
    for gate in (sliced, ref):
        hub = FlightRecorderHub(dump_dir=None, pre=64, post=8, triggers=["cycle==20"])
        gate.sim.reset()
        gate.schedule_fault(FaultSite(cycle=12, register="c0", index=3), lane=1)
        with armed(hub):
            _outcome(gate, xs, ys, ns)
        assert hub.bundles
        windows.append([(b.meta, b.window.to_dict()) for b in hub.bundles])
    assert windows[0] == windows[1]


def test_occupancy_samples_match():
    l = 8
    sliced = GateLevelMMMC(l, simulator="compiled", lanes=LANES)
    ref = per_gate_twin(sliced)
    xs, ys, ns = _operands(l, seed=11)
    summaries = []
    for gate in (sliced, ref):
        occupancy = OccupancyRecorder()
        with observe(occupancy=occupancy):
            gate.multiply_lanes(xs, ys, ns)
        summaries.append(occupancy.summary())
    assert summaries[0] == summaries[1]
    assert summaries[0]["gate"]["cycles"] == 3 * l + 4  # MUL cycles


def test_slot_registers_flip_and_peek_per_lane():
    """A flip on a slot-word register reads back on exactly that lane, in
    every slot that holds the register (pipeline stages sit in two)."""
    gate = GateLevelMMMC(8, simulator="compiled", lanes=LANES)
    sim = gate.sim
    homes = sim.kernel.homes
    for register, wires in gate.fault_sites().items():
        for w in wires:
            if w.index not in homes:
                continue
            before = sim.peek_lanes(w)
            sim.flip(w, lanes=[1])
            after = sim.peek_lanes(w)
            assert [a ^ b for a, b in zip(before, after)] == [0, 1, 0], register
            words = sim._banks()
            for bank, slot in homes[w.index]:
                assert (words[bank] >> (slot * LANES + 1)) & 1 == after[1]
            sim.flip(w, lanes=[1])
    assert any(len(h) == 2 for h in homes.values())  # pipeline stages
