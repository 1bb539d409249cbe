"""A rebound lane word is indistinguishable from a fresh instance.

The netlist backend keeps one :class:`GateLevelMMMC` per width and
rebinds its compiled simulator to each lane group's exact size.  The
rebind re-calls the cached kernel's factory with the new mask, so every
slot offset, slot plan and register word must follow the new lane count
and nothing of the previous word may leak: after any sequence of rebinds
and multiplications, a sweep must give the RESULT, the cycle count and
the full register state of a freshly elaborated instance of that width.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.systolic.mmmc_netlist import GateLevelMMMC

LANE_COUNTS = (1, 2, 3, 63, 64, 65, 85, 170, 256)


def _operands(l: int, lanes: int, seed: int):
    """One sweep's operands: up to three l-bit moduli across the lanes,
    x and y in [0, 2N) with 0 and 2N - 1 on the first lanes."""
    rng = random.Random(seed)
    moduli = [rng.getrandbits(l - 1) | (1 << (l - 1)) | 1 for _ in range(3)]
    ns = [moduli[rng.randrange(3)] for _ in range(lanes)]
    xs = [rng.randrange(2 * n) for n in ns]
    ys = [rng.randrange(2 * n) for n in ns]
    edges = [(0, 2 * ns[0] - 1), (2 * ns[0] - 1, 2 * ns[0] - 1), (2 * ns[0] - 1, 0)]
    for k, (x, y) in enumerate(edges[:lanes]):
        xs[k], ys[k] = x, y
        ns[k] = ns[0]
    return xs, ys, ns


def _sweep(gate: GateLevelMMMC, xs, ys, ns):
    runs = gate.multiply_lanes(xs, ys, ns)
    return [(r.result, r.cycles) for r in runs], gate.sim.state_vector()


@pytest.mark.parametrize("l", [3, 8, 17])
@settings(max_examples=10, deadline=None)
@given(
    first=st.sampled_from(LANE_COUNTS),
    steps=st.lists(
        st.tuples(st.sampled_from(LANE_COUNTS), st.integers(0, 2**32)),
        min_size=1,
        max_size=4,
    ),
)
def test_rebound_instance_equals_a_fresh_one(l, first, steps):
    gate = GateLevelMMMC(l, simulator="compiled", lanes=first)
    for lanes, seed in steps:
        kernel = gate.sim.kernel
        gate.rebind(lanes)
        assert gate.sim.kernel is kernel  # no recompile
        fresh = GateLevelMMMC(l, simulator="compiled", lanes=lanes)
        assert gate.lanes == gate.sim.lanes == lanes
        # Both start from reset...
        assert gate.sim.state_vector() == fresh.sim.state_vector()
        # ...and agree on a sweep's products, cycles and register state.
        xs, ys, ns = _operands(l, lanes, seed)
        assert _sweep(gate, xs, ys, ns) == _sweep(fresh, xs, ys, ns)
