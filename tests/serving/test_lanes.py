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
from repro.hdl.compiled import clear_kernel_cache, pack_slots, unpack_slots
from repro.montgomery.exponent import chain_kinds
from repro.montgomery.params import precompute_montgomery_constants
from repro.observability import MetricsRegistry, SpanTracer, observe
from repro.serving import ModExpRequest, ModExpService
from repro.serving.backends import GateLevelBackend, RTLBackend
from repro.systolic.exponentiator import ModularExponentiator
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
        assert backend.capabilities.lanes == 256
        assert "compiled" in backend.capabilities.description

    def test_execute_many_groups_by_exponent(self):
        """3+2 requests with two exponents, both contiguous and interleaved
        (19, 23, 19, 23, 19): the 3-group runs as lanes, the 2-group runs
        as lanes, results come back in input order."""
        rng = random.Random("lanes-group")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        contiguous = _requests(rng, n, 3, exponent=19)
        contiguous += _requests(rng, n, 2, exponent=23)
        interleaved = [contiguous[i] for i in (0, 3, 1, 4, 2)]
        backend = GateLevelBackend()
        for reqs in (contiguous, interleaved):
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
        the behavioral MMMC charges one exponentiation."""
        rng = random.Random("lanes-cycles")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _requests(rng, n, 4, exponent=21)
        backend = GateLevelBackend()
        grouped = backend.execute_many([ctx] * len(reqs), reqs)
        scalar = [_behavioral(ctx, r) for r in reqs]
        assert [g.value for g in grouped] == [s.result for s in scalar]
        assert [g.cycles for g in grouped] == [s.cycles for s in scalar]

    def test_lone_request_runs_on_one_lane_without_lane_metrics(self):
        """A singleton group sweeps no lane word: none of the lane series
        appear (the profiler's serving.lane_fill_p50 gate reads them)."""
        rng = random.Random("lanes-lone")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        request = _requests(rng, n, 1, exponent=0b101101)[0]
        backend = RTLBackend()
        registry, tracer = MetricsRegistry(), SpanTracer()
        with observe(metrics=registry, tracer=tracer):
            result = backend.execute_many([ctx], [request])[0]
        ref = _behavioral(ctx, request)
        assert (result.value, result.cycles) == (ref.result, ref.cycles)
        for name in ("hdl.lane_fill", "hdl.lanes_packed", "hdl.wasted_lane_cycles"):
            assert name not in registry, name
        events = tracer.to_dict()["traceEvents"]
        assert not [e for e in events if e.get("name") == "occupancy.lanes"]
        mmm = [e for e in events if e.get("ph") == "X" and e["name"] == "mmm"]
        assert len(mmm) == len(chain_kinds(request.exponent))
        assert not [e for e in mmm if "lanes" in e.get("args", {})]


def _behavioral(ctx, request):
    """The reference run: the behavioral MMMC under the exponentiator."""
    return ModularExponentiator(ctx, engine="rtl").exponentiate(
        request.base, request.exponent
    )


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
        cycles = _behavioral(contexts[0], requests[0]).cycles
        for request, result in zip(requests, results):
            assert result.value == pow(request.base, 65537, request.modulus)
            assert result.cycles == cycles

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
        real = gate.multiply_slots
        bad = 2 * small + 1
        assert 2 * small <= bad < 2 * large
        width = gate.l + 1

        def lane0_out_of_bound(x, y, n, used):
            t, cycles = real(x, y, n, used)
            values = unpack_slots(t, width, gate.lanes)
            values[0] = bad
            return pack_slots(values, width), cycles

        gate.multiply_slots = lane0_out_of_bound
        try:
            with pytest.raises(FaultDetected, match="lane 0") as caught:
                backend.execute_many(contexts, requests)
        finally:
            del gate.multiply_slots
        assert caught.value.check == "walter-bound"
        assert str(2 * small) in str(caught.value)


class TestOneRoutineChecks:
    """Lone requests and lane groups get the same per-product and
    per-group checks."""

    def test_lone_rtl_request_checks_the_walter_bound(self):
        n = 0x8001
        request = ModExpRequest(12345, 17, n, request_id="lone")
        ctx = precompute_montgomery_constants(n)
        backend = RTLBackend()
        gate = backend._mmmc(16)
        bad = replace(gate.multiply(1, 1, n), result=2 * n)
        # One lane: the bus-slot word is the product itself.
        gate.multiply_slots = lambda *_: (bad.result, bad.cycles)
        try:
            with pytest.raises(FaultDetected) as caught:
                backend.execute(ctx, request)
        finally:
            del gate.multiply_slots
        assert caught.value.check == "walter-bound"
        assert str(2 * n) in str(caught.value)

    def test_lane_group_cross_checks_cycles_against_the_model(self):
        rng = random.Random("skewed-lanes")
        n = 0x8001
        requests = _requests(rng, n, 2, exponent=17)
        ctx = precompute_montgomery_constants(n)
        backend = RTLBackend()
        gate = backend._mmmc(16, backend.sweep_lanes(2))
        real = gate.multiply_slots

        def one_cycle_slow(x, y, n, used):
            t, cycles = real(x, y, n, used)
            return t, cycles + 1

        gate.multiply_slots = one_cycle_slow
        try:
            with pytest.raises(AssertionError, match="cost model says"):
                backend.execute_many([ctx] * 2, requests)
        finally:
            del gate.multiply_slots


class _OneLaneGate(GateLevelBackend):
    """The gate backend declaring no lane packing (``lanes=1``)."""

    capabilities = replace(GateLevelBackend.capabilities, lanes=1)


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
            backend = _OneLaneGate()
            with ModExpService(backend=backend, max_batch=4) as svc:
                results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)
        assert registry.counter("hdl.lanes_packed").total() == 0


class TestFullLaneWord:
    """256 same-exponent requests of one width are one batch, one lane
    group and one compiled kernel, over one modulus or several."""

    @pytest.mark.parametrize("seed, count", [("ci-lanes", 1), ("ci-mixed-lanes", 4)])
    def test_256_request_batch_is_one_sweep(self, seed, count):
        rng = random.Random(seed)
        moduli = []
        while len(moduli) < count:
            n = random_odd_modulus(10, rng)
            if n not in moduli:
                moduli.append(n)
        requests = []
        for i in range(256):
            n = moduli[i % count]
            requests.append(ModExpRequest(rng.randrange(n), 257, n, request_id=f"r{i}"))
        clear_kernel_cache()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(backend="gate", max_batch=256) as svc:
                results = svc.process(requests)
        for req, res in zip(requests, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, req.modulus), res
        groups = registry.histogram("serving.lane_group_size").aggregate()
        assert registry.counter("hdl.compile_cache_misses").total() == 1
        assert registry.counter("hdl.lanes_packed").total() >= 256
        assert (groups.count, groups.max) == (1, 256)
