"""Self-healing serving: pool recovery, verification, breakers, chaos drill.

The acceptance test at the bottom is the PR's contract: a 200-request
workload under seeded worker kills, injected exceptions and bit flips
completes with every result equal to ``pow(x, e, N)`` and zero silent
corruptions.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import FaultDetected, InjectedFault, QueueFull
from repro.observability import MetricsRegistry, observe
from repro.robustness import (
    BreakerConfig,
    ChaosConfig,
    RetryPolicy,
    VerifyPolicy,
)
from repro.robustness.breaker import BreakerBoard
from repro.serving.request import ModExpRequest
from repro.serving.service import ModExpService
from repro.serving.shard import ShardPool

N = 0xC96F4F3C6D21E1F1A9F5A8B7 | 1  # 96-bit odd modulus


def reqs(count, exponent=65537, prefix="r", timeout=None):
    return [
        ModExpRequest(
            base=3 + i,
            exponent=exponent,
            modulus=N,
            request_id=f"{prefix}{i}",
            timeout=timeout,
        )
        for i in range(count)
    ]


def expected(i, exponent=65537):
    return pow(3 + i, exponent, N)


def _slow(latency_s):
    """Chaos plan under which every execution sleeps ``latency_s``."""
    return ChaosConfig(seed=1, latency_rate=1.0, latency_s=latency_s)


# ----------------------------------------------------------------------
# Satellite bugfix: slot accounting under timeout / cancellation
# ----------------------------------------------------------------------
class TestPoolSlotRelease:
    def test_abandon_frees_the_slot_of_a_running_task(self):
        """Regression: before `abandon`, a timed-out but still-running
        request held its in-flight slot forever; enough of them saturated
        the window permanently and every later submit deadlocked."""
        pool = ShardPool(
            shards=1, backend="integer", queue_limit=2, chaos=_slow(0.3)
        )
        try:
            stuck = pool.submit_batch(reqs(2))  # the worker sleeps on both
            # Window is saturated by in-flight requests: submission rejects.
            with pytest.raises(QueueFull):
                pool.submit_batch(reqs(1, prefix="x"))
            for f in stuck:
                pool.abandon(f)
            assert pool.depth == 0
            # The freed window admits new work — this is the submission
            # that raised QueueFull forever pre-fix.
            (replacement,) = pool.submit_batch(reqs(1, prefix="y"))
            assert replacement.result(timeout=10)[0] == expected(0)
            time.sleep(0.05)  # the abandoned answers must not double-free
            assert pool.depth == 0
        finally:
            pool.shutdown(wait=False)

    def test_abandon_is_idempotent_with_the_done_callback(self):
        with ShardPool(shards=1, backend="integer", queue_limit=4) as pool:
            (f,) = pool.submit_batch(reqs(1))
            f.result(timeout=10)
            time.sleep(0.05)  # let the reader thread release first
            assert not pool.abandon(f)  # already released: no double-free
            assert pool.depth == 0

    def test_service_timeout_path_releases_slots(self):
        """Saturation-after-timeouts regression at the service level:
        requests that blow their deadline must not eat the window."""
        svc = ModExpService(
            backend="integer",
            workers=2,
            worker_kind="shard",
            queue_limit=4,
            chaos=_slow(0.3),
        )
        try:
            for round_ in range(3):  # 12 timed-out requests through a 4-window
                results = svc.process(reqs(4, prefix=f"t{round_}_", timeout=0.05))
                assert all(r.error_type == "TimeoutError" for r in results)
            assert svc.pool.depth == 0  # every slot came back
        finally:
            svc.close(wait=False)


# ----------------------------------------------------------------------
# Worker-crash recovery (shard workers)
# ----------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def test_killed_workers_are_respawned_and_requests_requeued(self):
        svc = ModExpService(
            backend="integer",
            workers=2,
            worker_kind="shard",
            chaos=ChaosConfig(seed=11, worker_kill_rate=0.2),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.0),
        )
        try:
            results = svc.process(reqs(30))
            assert all(r.ok for r in results)
            assert [r.value for r in results] == [expected(i) for i in range(30)]
            assert svc.pool.restarts >= 1  # at least one shard respawn
        finally:
            svc.close(wait=False)

    def test_restart_metric_emitted(self):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            svc = ModExpService(
                backend="integer",
                workers=1,
                worker_kind="shard",
                chaos=ChaosConfig(seed=1, worker_kill_rate=0.5),
                retry=RetryPolicy(max_attempts=4, backoff_s=0.0),
            )
            try:
                results = svc.process(reqs(10))
                assert all(r.ok for r in results)
            finally:
                svc.close(wait=False)
        assert registry.counter("serving.worker_restarts").total() >= 1
        assert registry.counter("serving.requeued").total() >= 1


# ----------------------------------------------------------------------
# Verification + retry
# ----------------------------------------------------------------------
class TestVerifyAndRetry:
    def test_silent_bitflips_are_caught_and_healed(self):
        svc = ModExpService(
            backend="integer",
            workers=1,
            worker_kind="inline",
            chaos=ChaosConfig(seed=2, bitflip_rate=0.3),
            verify=VerifyPolicy(mode="full"),
            retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
        )
        try:
            results = svc.process(reqs(25))
            assert [r.value for r in results] == [expected(i) for i in range(25)]
        finally:
            svc.close()

    def test_without_verification_bitflips_pass_silently(self):
        """The control experiment: corruption really is silent, so the
        verifier (not an exception path) is what stands between a flipped
        register and the client."""
        svc = ModExpService(
            backend="integer",
            workers=1,
            worker_kind="inline",
            chaos=ChaosConfig(seed=2, bitflip_rate=0.3),
        )
        try:
            results = svc.process(reqs(25))
            wrong = [
                r
                for i, r in enumerate(results)
                if r.ok and r.value != expected(i)
            ]
            assert wrong  # some corrupted values sailed through
        finally:
            svc.close()

    def test_detection_metrics(self):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            svc = ModExpService(
                backend="integer",
                workers=1,
                worker_kind="inline",
                chaos=ChaosConfig(seed=2, bitflip_rate=0.3),
                verify=VerifyPolicy(mode="full"),
                retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
            )
            try:
                svc.process(reqs(25))
            finally:
                svc.close()
        assert registry.counter("serving.faults_detected").total() >= 1
        assert registry.counter("serving.retries").total() >= 1
        assert registry.counter("serving.verified").total() >= 25

    def test_exhausted_retries_fail_detected_never_silent(self):
        svc = ModExpService(
            backend="integer",
            workers=1,
            worker_kind="inline",
            chaos=ChaosConfig(seed=7, bitflip_rate=0.4, exception_rate=0.1),
            verify=VerifyPolicy(mode="full"),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        try:
            results = svc.process(reqs(40))
            for i, r in enumerate(results):
                if r.ok:
                    assert r.value == expected(i)  # zero silent corruptions
                else:
                    assert r.error_type in ("FaultDetected", "InjectedFault")
            assert any(not r.ok for r in results)  # seed 7 exhausts some
        finally:
            svc.close()


# ----------------------------------------------------------------------
# Breakers + failover
# ----------------------------------------------------------------------
class TestBreakerIntegration:
    def _storm_service(self, **kw):
        return ModExpService(
            backend="integer",
            workers=1,
            worker_kind="inline",
            chaos=ChaosConfig(seed=5, target_prefix="storm"),
            **kw,
        )

    def test_storm_opens_then_recovers_half_open_to_closed(self):
        clock = [0.0]
        svc = self._storm_service()
        svc.breakers = BreakerBoard(
            BreakerConfig(failure_threshold=3, cooldown_s=10.0, half_open_probes=1),
            clock=lambda: clock[0],
        )
        try:
            svc.process(reqs(5, prefix="storm"))
            brk = svc.breakers.get("integer")
            assert brk.state == "open"
            assert not svc.breakers.allow("integer")
            clock[0] = 11.0  # cooldown elapses
            results = svc.process(reqs(3, prefix="clean"))
            assert all(r.ok for r in results)
            assert brk.state == "closed"
        finally:
            svc.close()

    def test_open_breaker_routes_retries_to_alternate_backend(self):
        svc = self._storm_service(
            breaker=BreakerConfig(failure_threshold=2, cooldown_s=999.0),
            failover=True,
        )
        try:
            svc.process(reqs(3, prefix="storm"))  # no retries: breaker opens
            assert svc.breakers.get("integer").state == "open"
            svc.retry = RetryPolicy(max_attempts=3, backoff_s=0.0)
            results = svc.process(reqs(4, exponent=17, prefix="stormB"))
            assert all(r.ok for r in results)
            assert all(r.backend != "integer" for r in results)
            assert [r.value for r in results] == [
                expected(i, 17) for i in range(4)
            ]
        finally:
            svc.close()

    def test_failover_metric(self):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            svc = self._storm_service(
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=999.0),
                failover=True,
                retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
            )
            try:
                svc.process(reqs(1, prefix="storm"))  # opens after 1 failure
                results = svc.process(reqs(2, prefix="stormB"))
                assert all(r.ok for r in results)
            finally:
                svc.close()
        assert registry.counter("serving.failovers").total() >= 1
        assert registry.counter("serving.breaker_transitions").total() >= 1


# ----------------------------------------------------------------------
# Acceptance: the 200-request chaos drill
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    def test_200_requests_process_pool_kills_exceptions_flips(self):
        """Kills (>=5%), exceptions (5%) and result bit flips (5%) over a
        200-request batch through real shard worker processes: every
        returned value equals pow(x, e, N); nothing silently corrupted."""
        registry = MetricsRegistry()
        with observe(metrics=registry):
            svc = ModExpService(
                backend="integer",
                workers=4,
                worker_kind="shard",
                chaos=ChaosConfig(
                    seed=13,
                    worker_kill_rate=0.05,
                    exception_rate=0.05,
                    bitflip_rate=0.05,
                ),
                verify=VerifyPolicy(mode="full"),
                retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
                breaker=BreakerConfig(failure_threshold=20),
            )
            try:
                results = svc.process(reqs(200))
            finally:
                svc.close(wait=False)
        assert len(results) == 200
        failures = [r for r in results if not r.ok]
        assert not failures, [r.error_type for r in failures]
        assert [r.value for r in results] == [expected(i) for i in range(200)]
        # The drill must actually have injected and detected faults.
        # (Worker-side chaos.injected counts die with killed processes,
        # so the parent-side recovery counters are the robust signal.)
        assert registry.counter("serving.retries").total() >= 5
        assert registry.counter("serving.faults_detected").total() >= 1
        assert registry.counter("serving.worker_restarts").total() >= 1

    def test_register_level_flips_on_the_gate_backend(self):
        """Bit flips land in real netlist DFFs mid-multiplication; the
        verifier (range / residue) still catches every corruption."""
        svc = ModExpService(
            backend="rtl",
            workers=1,
            worker_kind="inline",
            chaos=ChaosConfig(seed=3, bitflip_rate=0.5),
            verify=VerifyPolicy(mode="full"),
            retry=RetryPolicy(max_attempts=6, backoff_s=0.0),
        )
        small_n = 197
        try:
            requests = [
                ModExpRequest(
                    base=2 + i, exponent=19, modulus=small_n, request_id=f"g{i}"
                )
                for i in range(8)
            ]
            results = svc.process(requests)
            for i, r in enumerate(results):
                if r.ok:
                    assert r.value == pow(2 + i, 19, small_n)
        finally:
            svc.close()
