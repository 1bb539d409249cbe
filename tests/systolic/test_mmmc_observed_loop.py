"""The compiled gate-level MMMC gives the same answers observed or not.

Under ``observe(...)`` ``multiply`` and ``multiply_lanes`` take their
per-cycle hooks (occupancy, ticks, spans); with observability off they
skip them.  Both must agree on every result, every cycle count, the
simulator's clock, scheduled faults and overflow raises.
"""

import random

import pytest

from repro.analysis.fault import FaultSite
from repro.errors import SimulationError
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.params import MontgomeryContext, precompute_montgomery_constants
from repro.observability import MetricsRegistry, observe
from repro.serving import ModExpRequest
from repro.serving.backends import RTLBackend
from repro.systolic.mmmc_netlist import GateLevelMMMC

LANES = 256

# A paper-mode operand set whose leftmost cell loses a carry (see
# tests/hdl/test_compiled.py).
OVERFLOW = dict(l=31, n=2094037023, x=2652540660, y=2813059522)


def _modulus(rng: random.Random, l: int) -> int:
    return (rng.getrandbits(l - 1) | (1 << (l - 1))) | 1


def _operands(l: int, count: int, seed: int):
    """``count`` lanes of one modulus; operands include 0 and 2N - 1."""
    rng = random.Random(seed)
    n = _modulus(rng, l)
    xs = [rng.randrange(2 * n) for _ in range(count)]
    ys = [rng.randrange(2 * n) for _ in range(count)]
    xs[0], ys[0] = 0, 2 * n - 1
    xs[-1], ys[-1] = 2 * n - 1, 2 * n - 1
    if count > 2:
        xs[1], ys[1] = 2 * n - 1, 0
    return n, xs, ys


def _sweep(l, xs, ys, n, observed, fault=None):
    """(outcome, sim.cycle) of one sweep on a fresh 256-lane instance.

    The outcome is ``[(result, cycles), ...]`` or the raised error's
    type and message.
    """
    g = GateLevelMMMC(l, simulator="compiled", lanes=LANES)
    start = g.sim.cycle
    if fault is not None:
        g.schedule_fault(*fault)

    def run():
        try:
            return [(r.result, r.cycles) for r in g.multiply_lanes(xs, ys, [n] * len(xs))]
        except SimulationError as exc:
            return (type(exc), str(exc))

    if observed:
        with observe(metrics=MetricsRegistry()):
            outcome = run()
    else:
        outcome = run()
    return outcome, g.sim.cycle - start


class TestLaneSweep:
    @pytest.mark.parametrize("l", [16, 64])
    @pytest.mark.parametrize("count", [LANES, 29])
    def test_plain_matches_observed(self, l, count):
        n, xs, ys = _operands(l, count, seed=1000 * l + count)
        plain, plain_clock = _sweep(l, xs, ys, n, observed=False)
        seen, seen_clock = _sweep(l, xs, ys, n, observed=True)
        assert plain == seen
        assert plain_clock == seen_clock == 1 + 3 * l + 5  # load + MUL..DONE
        ctx = MontgomeryContext(n)
        for (result, cycles), x, y in zip(plain, xs, ys):
            assert result == montgomery_no_subtraction(ctx, x, y)
            assert cycles == 3 * l + 5

    def test_one_lane_fault_is_identical(self):
        l = 16
        n, xs, ys = _operands(l, 29, seed=7)
        fault = (FaultSite(cycle=9, register="t", index=2), 3)
        plain, plain_clock = _sweep(l, xs, ys, n, observed=False, fault=fault)
        seen, seen_clock = _sweep(l, xs, ys, n, observed=True, fault=fault)
        clean, _ = _sweep(l, xs, ys, n, observed=False)
        assert plain == seen
        assert plain_clock == seen_clock
        # The strike hits lane 3 only.
        assert [v for k, v in enumerate(plain) if k != 3] == [
            v for k, v in enumerate(clean) if k != 3
        ]
        assert plain[3] != clean[3]

    def test_overflow_names_the_same_lanes(self):
        l, n, x, y = OVERFLOW["l"], OVERFLOW["n"], OVERFLOW["x"], OVERFLOW["y"]
        xs, ys, ns = [1, x, 1], [1, y, 1], [n] * 3
        messages = []
        for observed in (False, True):
            g = GateLevelMMMC(l, "paper", simulator="compiled", lanes=LANES)
            with pytest.raises(SimulationError) as exc:
                if observed:
                    with observe(metrics=MetricsRegistry()):
                        g.multiply_lanes(xs, ys, ns)
                else:
                    g.multiply_lanes(xs, ys, ns)
            messages.append(str(exc.value))
            assert g.sim.cycle == 0  # reset after the raise
        assert messages[0] == messages[1]
        assert messages[0].startswith("lanes [1]: ")


class TestScalar:
    @pytest.mark.parametrize("l", [16, 64])
    def test_plain_matches_observed(self, l):
        n, xs, ys = _operands(l, 6, seed=l)
        plain = GateLevelMMMC(l, simulator="compiled")
        seen = GateLevelMMMC(l, simulator="compiled")
        for x, y in zip(xs, ys):
            a = plain.multiply(x, y, n)
            with observe(metrics=MetricsRegistry()):
                b = seen.multiply(x, y, n)
            assert (a.result, a.cycles) == (b.result, b.cycles)
        assert plain.sim.cycle == seen.sim.cycle == 6 * (1 + 3 * l + 5)


class TestBackendSweep:
    def test_200_request_group_is_one_sweep(self):
        """200 same-exponent requests at l=64 fit one 256-lane sweep per
        multiplication, and every value and cycle count matches scalar."""
        rng = random.Random("lanes-200")
        n = _modulus(rng, 64)
        ctx = precompute_montgomery_constants(n)
        exponent = 65537
        reqs = [
            ModExpRequest(rng.randrange(n), exponent, n, request_id=f"r{i}")
            for i in range(200)
        ]
        backend = RTLBackend()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            results = backend.execute_many([ctx] * len(reqs), reqs)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, exponent, n)
        # to-Montgomery, 16 squarings, 1 multiply, from-Montgomery
        mults = 1 + 16 + 1 + 1
        fill = registry.histogram("hdl.lane_fill").aggregate(lanes=LANES)
        assert fill.count == mults
        assert fill.min == fill.max == 200
        # The scalar path's cycle count does not depend on the base, so a
        # sample of scalar runs pins every laned request's cycles.
        for i in (0, 99, 199):
            scalar = backend.execute(ctx, reqs[i])
            assert scalar.value == results[i].value
            assert {res.cycles for res in results} == {scalar.cycles}
