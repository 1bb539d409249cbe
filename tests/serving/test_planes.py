"""Plane equivalence: the inline and shard planes serve identical answers.

Both planes run every batch through the same executor
(:func:`repro.serving.pool.execute_batch`), so one seeded workload must
come back with the same values, cycles and error types, and the same
``serving.requests{status}`` totals, whichever plane served it.
"""

from __future__ import annotations

import random

import pytest

from repro.observability import MetricsRegistry, observe
from repro.robustness import ChaosConfig, RetryPolicy, VerifyPolicy
from repro.serving import ModExpRequest, ModExpService
from repro.serving.backends import GateLevelBackend
from repro.utils.rng import random_odd_modulus

LANES = GateLevelBackend.capabilities.lanes
STATUSES = ("accepted", "completed", "failed", "timeout", "rejected")


def _integer_workload(count=24, seed="planes"):
    rng = random.Random(seed)
    moduli = [random_odd_modulus(64, rng) for _ in range(3)]
    return [
        ModExpRequest(
            rng.randrange(1, moduli[i % 3]),
            rng.randrange(1, 1 << 16),
            moduli[i % 3],
            request_id=f"q{i}",
        )
        for i in range(count)
    ]


def _gate_workload():
    rng = random.Random("planes-gate")
    n = random_odd_modulus(10, rng)
    return [
        ModExpRequest(rng.randrange(n), 257, n, request_id=f"g{i}")
        for i in range(LANES)
    ]


class _CheapBrownout:
    """Brownout pinned at level 2: reroute to the cheapest capable backend."""

    reroute_cheap = True
    batch_suspended = False

    def update(self, pressure):
        return 2

    def verify_scale(self):
        return 1.0


def _serve(kind, requests, *, cheap=False, **service_kw):
    registry = MetricsRegistry()
    with ModExpService(workers=2, worker_kind=kind, **service_kw) as svc:
        if cheap:
            svc._brownout = _CheapBrownout()
        with observe(metrics=registry):
            results = svc.process(requests)
    outcome = [(r.request_id, r.value, r.cycles, r.error_type) for r in results]
    counter = registry.counter("serving.requests")
    totals = {status: counter.total(status=status) for status in STATUSES}
    return outcome, totals, registry


def _assert_planes_agree(requests, *, cheap=False, **service_kw):
    inline = _serve("inline", requests, cheap=cheap, **service_kw)
    shard = _serve("shard", requests, cheap=cheap, **service_kw)
    assert inline[0] == shard[0]
    assert inline[1] == shard[1]
    return inline, shard


class TestPlaneEquivalence:
    def test_integer(self):
        requests = _integer_workload()
        (outcome, totals, _), _ = _assert_planes_agree(requests, backend="integer")
        assert [value for _, value, _, _ in outcome] == [r.expected() for r in requests]
        assert totals["completed"] == len(requests)

    def test_gate_with_full_lane_packing(self):
        requests = _gate_workload()
        inline, shard = _assert_planes_agree(requests, backend="gate", max_batch=LANES)
        assert [value for _, value, _, _ in inline[0]] == [r.expected() for r in requests]
        for _, _, registry in (inline, shard):
            sizes = registry.histogram("serving.lane_group_size").aggregate()
            assert sizes.count == 1 and sizes.max == LANES  # one full lane sweep

    @pytest.mark.parametrize("max_attempts", [2, 5])
    def test_integer_under_chaos_bitflips_with_verify_and_retries(self, max_attempts):
        requests = _integer_workload(40, seed="planes-chaos")
        (outcome, totals, registry), _ = _assert_planes_agree(
            requests,
            backend="integer",
            chaos=ChaosConfig(seed=7, bitflip_rate=0.4),
            verify=VerifyPolicy(mode="full"),
            retry=RetryPolicy(max_attempts=max_attempts, backoff_s=0.0),
        )
        assert registry.counter("serving.faults_detected").total() > 0
        for request, (_, value, _, error_type) in zip(requests, outcome):
            if not error_type:
                assert value == request.expected()  # never silently wrong
            else:
                assert error_type == "FaultDetected"
        if max_attempts == 2:
            assert totals["failed"] > 0  # some corruption outlives retries

    def test_brownout_cheap_mode_reroutes_on_both_planes(self):
        requests = _integer_workload(6, seed="planes-cheap")
        (cheap, _, _), _ = _assert_planes_agree(requests, backend="integer", cheap=True)
        primary, _, _ = _serve("inline", requests, backend="integer")
        assert [value for _, value, _, _ in cheap] == [r.expected() for r in requests]
        # The cheapest capable backend's cycle model, not the primary's.
        assert [c for _, _, c, _ in cheap] != [c for _, _, c, _ in primary]
