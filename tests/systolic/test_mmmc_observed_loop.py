"""The gate-level MMMC's one cycle loop gives the same answers observed or not.

Under ``observe(...)`` ``multiply_lanes`` (and ``multiply``, its lane 0)
takes its per-cycle hooks (occupancy, ticks, spans); with observability
off it skips them.  Both must agree on every result, every cycle count,
the simulator's clock, scheduled faults and overflow raises.  References
are the closed-form product and the behavioral MMMC, never the netlist
itself.
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
from repro.systolic.exponentiator import ModularExponentiator
from repro.systolic.mmmc import MMMC
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


class TestOneLoop:
    """``multiply`` is lane 0 of ``multiply_lanes`` on both simulators."""

    @pytest.mark.parametrize("simulator", ["interpreted", "compiled"])
    @pytest.mark.parametrize(
        "l, paper, corrected", [(3, 13, 14), (8, 28, 29), (17, 55, 56)]
    )
    def test_literal_cycle_counts(self, simulator, l, paper, corrected):
        rng = random.Random(l)
        n = _modulus(rng, l)
        x, y = rng.randrange(n), rng.randrange(n)
        for mode, cycles in (("paper", paper), ("corrected", corrected)):
            g = GateLevelMMMC(l, mode, simulator=simulator)
            run = g.multiply(x, y, n)
            assert run.cycles == cycles
            assert run.result == MMMC(l, mode=mode).multiply(x, y, n).result
            assert g.sim.cycle == 1 + cycles  # load + MUL..DONE
            [lane] = g.multiply_lanes([x], [y], [n])
            assert (lane.result, lane.cycles) == (run.result, run.cycles)


class TestBackendSweep:
    def test_200_request_group_is_one_sweep(self):
        """200 same-exponent requests at l=64 fit one 256-lane sweep per
        multiplication, and every value and cycle count matches the
        behavioral MMMC."""
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
        # The behavioral MMMC's cycle count does not depend on the base, so
        # one reference run pins every laned request's cycles.
        ref = ModularExponentiator(ctx, engine="rtl").exponentiate(reqs[0].base, exponent)
        assert ref.result == results[0].value
        assert {res.cycles for res in results} == {ref.cycles}
