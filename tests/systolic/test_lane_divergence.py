"""Lock-step control is checked at DONE: a lane that leaves it raises.

Paper §5: without the final subtraction the MMMC's control is
data-independent, so every packed lane starts, counts and raises DONE on
the same cycles.  ``multiply_slots`` checks that when DONE rises: the
DONE word must hold every lane.  A counter bit flipped on one lane moves
that lane's DONE, and the sweep raises ``FaultDetected(check=
"lane-divergence")`` naming the lane instead of reading its RESULT at the
wrong cycle.
"""

import random

import pytest

from repro.analysis.fault import FaultSite
from repro.errors import FaultDetected
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.params import MontgomeryContext
from repro.observability.flightrec import FlightRecorderHub, armed
from repro.systolic.mmmc_netlist import GateLevelMMMC

L, LANES, LANE = 16, 8, 3


def _gate():
    """An 8-lane l=16 instance whose fault sites include the counter."""
    gate = GateLevelMMMC(L, simulator="compiled", lanes=LANES)
    sites = gate.fault_sites()
    sites["ctr"] = list(gate.ports.counter)
    gate.fault_sites = lambda: sites
    return gate


def _operands(seed):
    rng = random.Random(seed)
    n = rng.getrandbits(L - 1) | (1 << (L - 1)) | 1
    xs = [rng.randrange(2 * n) for _ in range(LANES)]
    ys = [rng.randrange(2 * n) for _ in range(LANES)]
    return xs, ys, [n] * LANES


@pytest.mark.parametrize("cycle", [5, 20])
@pytest.mark.parametrize("bit", range(6))
def test_counter_flip_on_one_lane_raises_naming_it(bit, cycle):
    gate = _gate()
    assert len(gate.ports.counter) == 6
    xs, ys, ns = _operands(f"diverge-{bit}-{cycle}")
    gate.schedule_fault(FaultSite(cycle=cycle, register="ctr", index=bit), lane=LANE)
    with pytest.raises(FaultDetected, match=rf"lanes \[{LANE}\]") as caught:
        gate.multiply_lanes(xs, ys, ns)
    assert caught.value.check == "lane-divergence"
    # The raise resets the instance: the next sweep is clean.
    runs = gate.multiply_lanes(xs, ys, ns)
    ctx = MontgomeryContext(ns[0])
    assert [r.result for r in runs] == [
        montgomery_no_subtraction(ctx, x, y) for x, y in zip(xs, ys)
    ]


def test_counter_flip_on_all_lanes_keeps_lock_step():
    """A flip on every lane moves every DONE together: no divergence to
    see (the cycle-count cross-check of an exponentiation catches it)."""
    gate = _gate()
    xs, ys, ns = _operands("diverge-all")
    gate.schedule_fault(FaultSite(cycle=5, register="ctr", index=0))
    runs = gate.multiply_lanes(xs, ys, ns)
    assert len({r.cycles for r in runs}) == 1
    assert runs[0].cycles != 3 * L + 5


def test_divergence_dumps_the_flight_recorder(tmp_path):
    """The raise still hands the armed recorder to the hub, so the strike
    that caused the divergence leaves a bundle on the faulting lane."""
    gate = _gate()
    xs, ys, ns = _operands("diverge-rec")
    hub = FlightRecorderHub(dump_dir=str(tmp_path), pre=16, post=4)
    gate.schedule_fault(FaultSite(cycle=5, register="ctr", index=4), lane=LANE)
    with armed(hub), pytest.raises(FaultDetected):
        gate.multiply_lanes(xs, ys, ns)
    bundle = hub.last_bundle
    assert bundle is not None
    assert bundle.meta["cause"] == f"bit-flip on ctr[4].q lane {LANE}"
    assert bundle.meta["lane"] == LANE
    assert bundle.meta["xs"] == xs
