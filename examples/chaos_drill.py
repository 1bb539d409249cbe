#!/usr/bin/env python
"""Self-healing serving drill: chaos in, correct answers out.

Two phases against :class:`repro.serving.ModExpService`:

1. **Chaos batch** — 200 requests through four shard workers while
   the seeded fault plan kills workers, injects backend exceptions and
   flips result bits (5% each).  Online verification + retries + shard
   respawn must deliver every result equal to ``pow(x, e, N)`` — the run
   fails loudly otherwise, and the silently corrupted values are counted
   into the ``serving.silent_corruptions`` metric, zero included (the CI
   gate asserts it stays 0, and the drill asserts the series exists so
   that gate cannot pass on an absent metric).

2. **Breaker storm** — a burst of deterministic failures
   (``target_prefix``) trips the integer backend's circuit breaker;
   after the cooldown, clean traffic drives it half-open → closed,
   demonstrating shed-and-recover.

3. **Black box** — register-level SEUs through the rtl backend's gate netlist
   with the flight recorder armed: chaos flips real DFBs mid-
   multiplication, every strike freezes a black-box window, and the
   post-mortem bundles (VCD + JSON context) land in ``argv[2]``
   (default ``chaos_dumps``) for CI to upload as artifacts.

The final metrics snapshot goes to the path given as ``argv[1]``
(default ``chaos_metrics.json``) for ``repro obs diff --require`` gates:

    python examples/chaos_drill.py out.json dumps/
    python -m repro obs diff out.json \
        --require 'serving.faults_detected>0' \
        --require 'serving.silent_corruptions==0' \
        --require 'hdl.flightrec_dumps>0'
"""

import sys
import time

from repro.observability import OBS, MetricsRegistry, observe
from repro.robustness import (
    BreakerConfig,
    ChaosConfig,
    RetryPolicy,
    VerifyPolicy,
)
from repro.serving import ModExpRequest, ModExpService

N = 0xD94A8D1BCF3F6B6E0E2B8C5F1A7D3E9B4C6F8A2D | 1  # 160-bit odd modulus
REQUESTS = 200


def chaos_batch() -> int:
    """Phase 1: the 200-request drill.  Returns the silent-corruption count."""
    requests = [
        ModExpRequest(3 + i, 65537, N, request_id=f"d{i}")
        for i in range(REQUESTS)
    ]
    with ModExpService(
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
        retry=RetryPolicy(max_attempts=5, backoff_s=0.001),
        breaker=BreakerConfig(failure_threshold=20),
    ) as service:
        t0 = time.perf_counter()
        results = service.process(requests)
        wall = time.perf_counter() - t0
        restarts = service.pool.restarts

    silent = failed = 0
    for i, result in enumerate(results):
        if not result.ok:
            failed += 1
        elif result.value != pow(3 + i, 65537, N):
            silent += 1
    OBS.count("serving.silent_corruptions", silent)

    print(
        f"phase 1 — chaos batch: {REQUESTS} requests in {wall:.2f}s, "
        f"{failed} failed, {silent} silent corruptions, "
        f"{restarts} shard respawn(s)"
    )
    if failed or silent:
        raise SystemExit(
            f"drill FAILED: {failed} failures, {silent} silent corruptions"
        )
    return silent


def breaker_storm() -> None:
    """Phase 2: trip the breaker with a storm, then watch it recover."""
    with ModExpService(
        backend="integer",
        workers=1,
        worker_kind="inline",
        chaos=ChaosConfig(seed=5, target_prefix="storm"),
        retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        breaker=BreakerConfig(
            failure_threshold=3, cooldown_s=0.2, half_open_probes=1
        ),
    ) as service:
        storm = [
            ModExpRequest(9, 65537, N, request_id=f"storm{i}") for i in range(5)
        ]
        service.retry = None  # storms must fail outright to trip the breaker
        service.process(storm)
        breaker = service.breakers.get("integer")
        opened = breaker.state
        time.sleep(0.25)  # let the cooldown elapse

        service.retry = RetryPolicy(max_attempts=2, backoff_s=0.0)
        clean = [
            ModExpRequest(5, 65537, N, request_id=f"ok{i}") for i in range(3)
        ]
        results = service.process(clean)
        closed = breaker.state

    assert all(r.ok and r.value == pow(5, 65537, N) for r in results)
    print(
        f"phase 2 — breaker storm: tripped to {opened!r}, recovered to "
        f"{closed!r} after cooldown + clean traffic"
    )
    if opened != "open" or closed != "closed":
        raise SystemExit("drill FAILED: breaker did not trip and recover")


def black_box(dump_dir: str) -> None:
    """Phase 3: register SEUs leave replayable post-mortem bundles."""
    from repro.observability.flightrec import PostMortemBundle, find_bundles

    n = 1021  # the rtl backend runs real netlists; keep l small
    requests = [
        ModExpRequest(3 + i, 17, n, request_id=f"r{i}") for i in range(50)
    ]
    with ModExpService(
        backend="rtl",
        workers=1,
        worker_kind="inline",
        chaos=ChaosConfig(
            seed=0,  # draws bit-flips on r4/r13/r25; retries run clean
            bitflip_rate=0.05,
            register_faults=True,
            flightrec_dir=dump_dir,
        ),
        verify=VerifyPolicy(mode="full"),
        retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
    ) as service:
        results = service.process(requests)

    wrong = [
        (i, r) for i, r in enumerate(results)
        if not r.ok or r.value != pow(3 + i, 17, n)
    ]
    bundles = find_bundles(dump_dir)
    print(
        f"phase 3 — black box: {len(requests)} requests through the "
        f"gate-level netlist, {len(bundles)} post-mortem bundle(s) -> "
        f"{dump_dir}"
    )
    if wrong or not bundles:
        raise SystemExit(
            f"drill FAILED: {len(wrong)} bad results, {len(bundles)} bundles"
        )
    newest = PostMortemBundle.load(bundles[-1])
    print(
        f"  newest: req {newest.meta.get('request_id')} — "
        f"{newest.meta.get('cause')} at cycle {newest.meta.get('trigger_cycle')}"
    )


def main() -> None:
    metrics_out = sys.argv[1] if len(sys.argv) > 1 else "chaos_metrics.json"
    dump_dir = sys.argv[2] if len(sys.argv) > 2 else "chaos_dumps"
    registry = MetricsRegistry()
    with observe(metrics=registry):
        chaos_batch()
        breaker_storm()
        black_box(dump_dir)
    registry.write_json(metrics_out)
    assert "serving.silent_corruptions" in registry, "drill never counted corruptions"
    detected = registry.counter("serving.faults_detected").total()
    retries = registry.counter("serving.retries").total()
    restarts = registry.counter("serving.worker_restarts").total()
    dumps = registry.counter("hdl.flightrec_dumps").total()
    print(
        f"drill PASSED: {detected} corruption(s) detected, {retries} "
        f"retries, {restarts} worker restart(s), {dumps} flight-recorder "
        f"dump(s); metrics -> {metrics_out}"
    )


if __name__ == "__main__":
    main()
