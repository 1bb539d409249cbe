"""ChipBackend: chain-interleaved modexp, cost model, service integration."""

from __future__ import annotations

import random

import pytest

from repro.chip.backend import ChipBackend
from repro.chip.schedule import completion_estimate_cycles
from repro.errors import ParameterError
from repro.montgomery.params import precompute_montgomery_constants
from repro.serving import ModExpRequest, ModExpService, SLOPolicy, default_registry
from repro.systolic.timing import mmm_cycles_corrected
from repro.utils.rng import random_odd_modulus


def _requests(l: int, count: int, seed: int = 0, mixed: bool = True):
    rng = random.Random(seed)
    n = random_odd_modulus(l, rng)
    reqs = []
    for i in range(count):
        e = rng.randrange(3, 1 << 8) if mixed else 17
        reqs.append(
            ModExpRequest(rng.randrange(1, n), e, n, request_id=f"c{i}")
        )
    return reqs, n


class TestRegistration:
    def test_registered_with_chip_capabilities(self):
        caps = default_registry().get("chip").capabilities
        assert caps.simulator and caps.cycle_accurate
        assert caps.lanes == 4  # 2 tiles x 2 waves
        assert caps.mixed_exponent_lanes
        assert "2-tile x 2-wave" in caps.description

    def test_engine_screen(self):
        with pytest.raises(ParameterError):
            ChipBackend(engine="compiled")


class TestExecution:
    def test_mixed_exponent_batch_pow_correct(self):
        reqs, n = _requests(16, 6, seed=1)
        ctx = precompute_montgomery_constants(n)
        results = ChipBackend().execute_many([ctx] * len(reqs), reqs)
        assert len(results) == 6
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)

    def test_cycles_are_scalar_identical(self):
        # Per-request cycles = own MMM latencies summed, independent of
        # how many neighbours shared the chip: 2 + #squares + #multiplies
        # multiplications at 3l+5 each.
        reqs, n = _requests(16, 3, seed=2, mixed=False)  # e=17: 10001b
        ctx = precompute_montgomery_constants(n)
        results = ChipBackend().execute_many([ctx] * len(reqs), reqs)
        mults = 2 + (17 .bit_length() - 1) + bin(17).count("1") - 1  # pre+post+sq+ml
        expected = mults * mmm_cycles_corrected(ctx.l)
        assert all(r.cycles == expected for r in results)

    def test_two_moduli_rejected(self):
        # The chip is batched by (modulus, l): handed a group spanning two
        # moduli it must refuse, not run every chain under the first.
        (first,), n = _requests(16, 1, seed=3)
        (second,), other = _requests(16, 1, seed=4)
        assert other != n
        contexts = [
            precompute_montgomery_constants(n),
            precompute_montgomery_constants(other),
        ]
        with pytest.raises(ParameterError, match="one \\(modulus, l\\)"):
            ChipBackend().execute_many(contexts, [first, second])

    def test_empty_batch(self):
        reqs, n = _requests(16, 1)
        ctx = precompute_montgomery_constants(n)
        assert ChipBackend().execute_many([], []) == []


class TestCostModel:
    def test_group_estimate_beats_scalar_sum(self):
        reqs, n = _requests(16, 8, seed=3)
        backend = ChipBackend()
        group = backend.estimate_group_cycles(reqs)
        scalar = sum(
            2 * r.exponent.bit_length() * mmm_cycles_corrected(16) for r in reqs
        )
        assert 0 < group < scalar
        assert backend.estimate_group_cycles([]) == 0

    def test_estimate_cost_discounted_by_speedup(self):
        reqs, _ = _requests(32, 1, seed=4)
        chip = ChipBackend()
        rtl = default_registry().get("rtl")
        # Same cycle model, but the chip's wall estimate is amortized.
        assert chip.estimate_cost(reqs[0]) < rtl.estimate_cost(reqs[0]) * 4

    def test_completion_budget_uses_tiles_and_waves(self):
        reqs, _ = _requests(16, 8, seed=5)
        slo = SLOPolicy()
        flat = slo.completion_budget(reqs, tiles=1, waves=1)
        chip = slo.completion_budget(reqs, tiles=2, waves=2)
        assert 0 < chip < flat
        assert slo.completion_budget([]) == 0
        fixed = SLOPolicy(fixed_budget=999)
        assert fixed.completion_budget(reqs, tiles=2, waves=2) == 999

    def test_completion_budget_matches_schedule_estimate(self):
        reqs, _ = _requests(16, 4, seed=6)
        slo = SLOPolicy(margin=1.0)
        mults = [2 * r.exponent.bit_length() for r in reqs]
        l = max(r.width for r in reqs)
        assert slo.completion_budget(reqs, tiles=2, waves=2) == (
            completion_estimate_cycles(mults, l, tiles=2, waves=2)
        )


class TestServiceIntegration:
    def test_through_service_with_mixed_exponent_lanes(self):
        reqs, n = _requests(16, 7, seed=7)
        with ModExpService(
            backend="chip", workers=2, worker_kind="shard"
        ) as service:
            results = service.process(reqs)
        assert all(r.ok for r in results)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)

    def test_slo_checks_pass_on_chip_results(self, ):
        from repro.observability import MetricsRegistry, observe

        reqs, _ = _requests(16, 4, seed=8)
        reg = MetricsRegistry()
        with observe(metrics=reg):
            with ModExpService(
                backend="chip", workers=1, worker_kind="inline"
            ) as service:
                results = service.process(reqs)
        assert all(r.ok for r in results)
        assert reg.counter("serving.slo_checks").total() == 4
        assert reg.counter("serving.slo_violations").total() == 0
