"""Bit-sliced lane batching through the serving layer.

Coalesced batches of same-width, same-exponent requests ride one 64- or
256-lane compiled simulator sweep instead of one scalar simulation per
request, each lane under its own modulus; mixed exponents and short
batches degrade gracefully to scalar dispatch.  The wire format, result
ordering and SLO inputs must be indistinguishable from scalar execution.
"""

import random
from dataclasses import replace

import pytest

from repro.errors import FaultDetected
from repro.hdl.compiled import clear_kernel_cache
from repro.montgomery.params import precompute_montgomery_constants
from repro.observability import MetricsRegistry, observe
from repro.serving import ModExpRequest, ModExpService
from repro.serving.backends import GateLevelBackend, RTLBackend
from repro.utils.rng import random_odd_modulus


def _requests(rng, n, count, exponent=None):
    return [
        ModExpRequest(
            rng.randrange(n),
            exponent if exponent is not None else rng.randrange(1, n),
            n,
            request_id=f"r{i}",
        )
        for i in range(count)
    ]


class TestBackendLanes:
    def test_rtl_defaults_to_compiled_gate_twin(self):
        backend = RTLBackend()
        assert backend.engine == "gate"
        assert backend.capabilities.lanes == 256
        assert "compiled" in backend.capabilities.description

    def test_rtl_behavioral_fallback_is_scalar(self):
        backend = RTLBackend(engine="rtl")
        assert backend.capabilities.lanes == 1
        assert "behavioral" in backend.capabilities.description

    def test_gate_interpreted_fallback_is_scalar(self):
        backend = GateLevelBackend(simulator="interpreted")
        assert backend.capabilities.lanes == 1
        assert backend.wall_weight > GateLevelBackend().wall_weight

    def test_execute_many_groups_by_exponent(self):
        """3+2 requests with two exponents: the 3-group runs as lanes,
        the 2-group runs as lanes, results come back in input order."""
        rng = random.Random("lanes-group")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _requests(rng, n, 3, exponent=19)
        reqs += _requests(rng, n, 2, exponent=23)
        backend = GateLevelBackend()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            results = backend.execute_many([ctx] * len(reqs), reqs)
        assert len(results) == len(reqs)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)
            assert res.cycles is not None and res.cycles > 0
        assert registry.counter("hdl.lanes_packed").total() > 0

    def test_sweep_width_follows_group_size(self):
        """A group sweeps on its size rounded up to a multiple of 64 lanes,
        capped at the full word; every word shares one compiled kernel."""
        backend = GateLevelBackend()
        full = backend.capabilities.lanes
        assert [backend.sweep_lanes(k) for k in (2, 64, 65, 129, full, full + 1)] == [
            64, 64, 128, 192, full, full,
        ]
        rng = random.Random("lanes-width")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _requests(rng, n, 64, exponent=19) + _requests(rng, n, 65, exponent=23)
        clear_kernel_cache()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            results = backend.execute_many([ctx] * len(reqs), reqs)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)
        fill = registry.histogram("hdl.lane_fill")
        word = backend.sweep_lanes(65)
        narrow, wide = fill.aggregate(lanes=64), fill.aggregate(lanes=word)
        assert narrow.min == narrow.max == 64
        assert wide.min == wide.max == 65
        assert narrow.count + wide.count == fill.aggregate().count
        cycles = 3 * 9 + 5  # corrected-mode gate netlist at l=9
        wasted = registry.counter("hdl.wasted_lane_cycles").total()
        assert wasted == (word - 65) * cycles * wide.count
        assert registry.counter("hdl.compile_cache_misses").total() == 1

    def test_execute_many_singletons_take_the_scalar_path(self):
        rng = random.Random("lanes-single")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _requests(rng, n, 3)  # three distinct random exponents
        backend = GateLevelBackend()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            results = backend.execute_many([ctx] * len(reqs), reqs)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)
        assert registry.counter("hdl.lanes_packed").total() == 0

    def test_lane_group_cycles_match_scalar_execution(self):
        """SLO semantics: a laned request reports the same cycle count
        the scalar path would have charged it."""
        rng = random.Random("lanes-cycles")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _requests(rng, n, 4, exponent=21)
        backend = GateLevelBackend()
        grouped = backend.execute_many([ctx] * len(reqs), reqs)
        scalar = [backend.execute(ctx, r) for r in reqs]
        assert [g.value for g in grouped] == [s.value for s in scalar]
        assert [g.cycles for g in grouped] == [s.cycles for s in scalar]


def _mixed_modulus_group(rng, moduli, size, exponent):
    """``size`` requests cycling over ``moduli``; each modulus's first two
    requests carry the edge bases 0 and N-1."""
    requests = []
    for i in range(size):
        n = moduli[i % len(moduli)]
        edge = i // len(moduli)
        base = 0 if edge == 0 else n - 1 if edge == 1 else rng.randrange(n)
        requests.append(ModExpRequest(base, exponent, n, request_id=f"x{i}"))
    return requests


class TestMixedModulusLanes:
    """One sweep, a modulus per lane: same answers as per-modulus runs."""

    @pytest.mark.parametrize("l, size", [(16, 70), (32, 9), (64, 5)])
    def test_rtl_mixed_moduli_match_pow_and_scalar_cycles(self, l, size):
        rng = random.Random(f"rtl-mixed-{l}")
        moduli = [random_odd_modulus(l, rng) for _ in range(3)]
        requests = _mixed_modulus_group(rng, moduli, size, 65537)
        contexts = [precompute_montgomery_constants(r.modulus) for r in requests]
        backend = RTLBackend()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            results = backend.execute_many(contexts, requests)
        # One lane group: every multiplication is one sweep of all lanes.
        fill = registry.histogram("hdl.lane_fill").aggregate()
        assert fill.min == fill.max == size
        for request, ctx, result in zip(requests, contexts, results):
            assert result.value == pow(request.base, 65537, request.modulus)
            assert result.cycles == backend.execute(ctx, request).cycles

    def test_walter_bound_is_checked_against_each_lanes_own_modulus(self):
        # Lane 0 runs the small modulus, lane 1 the large one.  A lane-0
        # product in [2*N_small, 2*N_large) breaks lane 0's T < 2N bound
        # but would pass a check against the other lane's modulus.
        rng = random.Random("walter-per-lane")
        small, large = 0x8001, 0xFFF1
        requests = [
            ModExpRequest(rng.randrange(small), 17, small, request_id="small"),
            ModExpRequest(rng.randrange(large), 17, large, request_id="large"),
        ]
        contexts = [precompute_montgomery_constants(r.modulus) for r in requests]
        backend = RTLBackend()
        gate = backend._mmmc(16, backend.sweep_lanes(2))
        real = gate.multiply_lanes
        bad = 2 * small + 1
        assert 2 * small <= bad < 2 * large

        def lane0_out_of_bound(xs, ys, ns):
            runs = real(xs, ys, ns)
            return [replace(runs[0], result=bad)] + runs[1:]

        gate.multiply_lanes = lane0_out_of_bound
        try:
            with pytest.raises(FaultDetected, match="lane 0") as caught:
                backend.execute_many(contexts, requests)
        finally:
            del gate.multiply_lanes
        assert caught.value.check == "walter-bound"
        assert str(2 * small) in str(caught.value)


class TestServiceLaneDispatch:
    def test_same_exponent_batch_packs_lanes(self):
        rng = random.Random("svc-lanes")
        n = random_odd_modulus(10, rng)
        reqs = _requests(rng, n, 16, exponent=257)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(backend="gate", max_batch=16) as svc:
                results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)
            assert res.cycles is not None
            assert res.wall_us is not None and res.wall_us > 0
        assert registry.counter("hdl.lanes_packed").total() >= 16
        accepted = registry.counter("serving.requests").total(status="accepted")
        completed = registry.counter("serving.requests").total(status="completed")
        assert accepted == completed == 16

    def test_mixed_exponents_still_correct(self):
        rng = random.Random("svc-mixed")
        n = random_odd_modulus(10, rng)
        reqs = _requests(rng, n, 6, exponent=91)
        reqs += _requests(rng, n, 5)
        rng.shuffle(reqs)
        with ModExpService(backend="gate", max_batch=8, workers=2) as svc:
            results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)

    def test_rtl_backend_lanes_through_service(self):
        rng = random.Random("svc-rtl")
        n = random_odd_modulus(12, rng)
        reqs = _requests(rng, n, 8, exponent=65)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(backend="rtl", max_batch=8) as svc:
                results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)
        assert registry.counter("hdl.lanes_packed").total() >= 8

    def test_scalar_backend_never_groups(self):
        rng = random.Random("svc-scalar")
        n = random_odd_modulus(8, rng)
        reqs = _requests(rng, n, 4, exponent=9)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            backend = GateLevelBackend(simulator="interpreted")
            with ModExpService(backend=backend, max_batch=4) as svc:
                results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)
        assert registry.counter("hdl.lanes_packed").total() == 0
