"""Overload drill: 2× capacity offered, graceful degradation delivered.

Two experiments against the sharded serving plane, both feeding the CI
``overload-drill`` job's ``repro obs diff --require`` gates:

1. **2× capacity drill** — measure the pool's capacity on a calibration
   workload, then offer twice that in one open-loop burst with the
   graceful-degradation ladder armed (token-bucket admission with an
   interactive reserve, CoDel shedding, per-class deadline budgets).
   The ladder must shed *batch* traffic, keep every admitted interactive
   request inside its deadline (``serving.deadline_violations`` stays
   zero for the class), and hold goodput at ≥ 90% of measured capacity —
   load regulation, not collapse.

2. **Stuck-worker recycling** — a seeded chaos plan wedges ~10% of
   requests (stuck worker sleeps, the slow-but-alive failure mode) on a
   two-shard pool.  The same workload runs with stuck detection off,
   then on: the shard health machine's monitor sees a frame held past
   ``stuck_timeout_s``, drains the shard, terminates the wedged worker at
   once and requeues its request to a fresh worker (with the attempt
   index bumped, so the deterministic fault does not re-fire).  On the
   same seed, detection must cut the straggler p99 to a third or less
   while leaving p50 where it was.

Every completed value in both experiments is verified against ``pow()``;
any mismatch is counted into ``serving.silent_corruptions`` (gated
``== 0`` in CI, exactly like the chaos drill).
"""

from __future__ import annotations

import random
import time

from repro.analysis.tables import render_table
from repro.observability import OBS
from repro.robustness import ChaosConfig
from repro.robustness.chaos import FaultPlan
from repro.serving import (
    HealthConfig,
    ModExpRequest,
    ModExpService,
    OverloadConfig,
)
from repro.serving.workload import WorkloadConfig, generate_workload
from repro.utils.rng import random_odd_modulus

# Heavy enough that execution dominates IPC and timer noise, light
# enough that the whole 2× burst drains in a second or two — the class
# budgets below are generous, so the drill exercises the deadline
# plumbing without manufacturing violations.
_WORKLOAD = dict(
    keys=4,
    bits=(192, 256),
    exponent_bits=(96,),
    zipf_s=1.2,
    interactive_share=0.25,
    interactive_budget_s=30.0,
    batch_budget_s=60.0,
)
CALIBRATION = 240
OFFERED = 480  # 2× the admission window below


def _percentile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _verified_ok(requests, results) -> int:
    """Count ok results, folding any wrong value into the silent gauge."""
    ok = silent = 0
    for request, result in zip(requests, results):
        if not result.ok:
            continue
        if result.value == pow(request.base, request.exponent, request.modulus):
            ok += 1
        else:
            silent += 1
    OBS.count("serving.silent_corruptions", silent)
    assert silent == 0, f"{silent} silently corrupted value(s)"
    return ok


def test_overload_drill_at_2x_capacity(save_table, benchmark_metrics):
    # -- calibration: what can this pool actually serve? -----------------
    calibration = generate_workload(
        WorkloadConfig(requests=CALIBRATION, **_WORKLOAD), seed="ovl-cal"
    )
    with ModExpService(
        backend="integer", workers=2, worker_kind="shard"
    ) as service:
        service.process(calibration.requests[:16])  # spawn + warm caches
        t0 = time.perf_counter()
        results = service.process(calibration.requests)
        cal_wall = time.perf_counter() - t0
    assert _verified_ok(calibration.requests, results) == CALIBRATION
    capacity = CALIBRATION / cal_wall

    # -- the drill: 2× capacity in one open-loop burst -------------------
    drill = generate_workload(
        WorkloadConfig(requests=OFFERED, **_WORKLOAD), seed="ovl-drill"
    )
    # Reserve sizing: batch shares the bucket above the reserve line, so
    # interactive (~25% of arrivals) needs reserve + its share of the
    # shared region to cover its demand.  One half leaves slack for the
    # seeded class draw.
    overload = OverloadConfig(
        admit_rate=capacity,
        admit_burst=OFFERED / 2,  # one capacity-worth of burst tokens
        interactive_reserve=0.5,
        shed_target_s=0.25,
        interactive_budget_s=30.0,
        default_budget_s=60.0,
    )
    with ModExpService(
        backend="integer", workers=2, worker_kind="shard", overload=overload
    ) as service:
        service.process(calibration.requests[:16])  # spawn + warm caches
        t0 = time.perf_counter()
        results = service.process(drill.requests)
        drill_wall = time.perf_counter() - t0

    ok = _verified_ok(drill.requests, results)
    goodput = ok / drill_wall
    shed = {"interactive": 0, "batch": 0}
    interactive_admitted = interactive_ok = 0
    for request, result in zip(drill.requests, results):
        if result.error_type == "RequestShed":
            shed[request.priority] += 1
        elif request.priority == "interactive":
            interactive_admitted += 1
            interactive_ok += int(result.ok)

    save_table(
        "overload_drill",
        render_table(
            ["figure", "value"],
            [
                ["measured capacity", f"{capacity:.0f} req/s"],
                ["offered", f"{OFFERED} requests (2x) in one burst"],
                ["admitted / ok", f"{OFFERED - sum(shed.values())} / {ok}"],
                ["shed (batch)", shed["batch"]],
                ["shed (interactive)", shed["interactive"]],
                ["goodput", f"{goodput:.0f} req/s"],
                ["goodput / capacity", f"{goodput / capacity:.2f}"],
                [
                    "interactive served",
                    f"{interactive_ok}/{interactive_admitted} admitted",
                ],
            ],
            title=(
                "Overload drill: 2x capacity offered, token-bucket "
                "admission + interactive reserve + CoDel shedding"
            ),
        ),
    )

    # Load was regulated, not collapsed: batch gave way, interactive
    # survived whole, and the admitted work ran at ~capacity.
    assert shed["batch"] > 0
    assert shed["interactive"] == 0
    assert interactive_ok == interactive_admitted
    assert goodput >= 0.9 * capacity, (
        f"goodput {goodput:.0f}/s under 90% of capacity {capacity:.0f}/s"
    )
    assert benchmark_metrics.counter("serving.shed_requests").total() > 0
    if "serving.deadline_violations" in benchmark_metrics:
        violations = benchmark_metrics.counter("serving.deadline_violations")
        assert violations.total(**{"class": "interactive"}) == 0


STUCK = ChaosConfig(seed=23, stuck_rate=0.10, stuck_s=0.35)
MEASURED = 120
WARMUP = 16


def _straggler_requests():
    """A seeded request set whose requeues run *clean* re-executions.

    The fault plan is deterministic per ``(request_id, attempt)``, so the
    benchmark picks ids where attempt 0 is clean or stuck (the straggler
    population) and attempt 1 — what a requeue draws — is always clean.
    Warmup ids are fully clean.
    """
    plan = FaultPlan(STUCK)
    n = random_odd_modulus(768, random.Random("ovl-stuck"))
    rng = random.Random("ovl-stuck-ops")
    warm, requests, stragglers, i = [], [], 0, 0
    while len(requests) < MEASURED:
        rid = f"hs{i}"
        i += 1
        if plan.decide(rid, 1):
            continue
        stuck = bool(plan.decide(rid, 0))
        if len(warm) < WARMUP:
            if not stuck:
                warm.append(rid)
            continue
        stragglers += stuck
        requests.append(rid)
    make = lambda rid: ModExpRequest(
        rng.randrange(2, n), 65537, n, request_id=rid
    )
    return [make(r) for r in warm], [make(r) for r in requests], stragglers


# Detection off: a stuck sleep never reaches the timeout.  Detection on:
# 50 ms is over 25 times a request's median round trip, so only a wedged
# worker crosses it.  Stuck sleeps would also read as latency strikes and drain
# the shard; the huge degrade factor keeps this a test of the stuck path.
DETECTION_OFF = HealthConfig(degrade_factor=1e9, stuck_timeout_s=60.0)
DETECTION_ON = HealthConfig(
    degrade_factor=1e9, stuck_timeout_s=0.05, drain_timeout_s=0.0
)


def _run_straggler_trial(warm, requests, health: HealthConfig):
    latencies, results = [], []
    with ModExpService(
        backend="integer",
        workers=2,
        worker_kind="shard",
        chaos=STUCK,
        health=health,
    ) as service:
        for request in warm:  # spawn workers, warm their caches
            service.process([request])
        restarts = service.pool.restarts
        for request in requests:
            t0 = time.perf_counter()
            (result,) = service.process([request])
            latencies.append(time.perf_counter() - t0)
            assert result.ok, result.error
            results.append(result)
        restarts = service.pool.restarts - restarts
    assert _verified_ok(requests, results) == len(requests)
    return latencies, restarts


def test_stuck_workers_are_recycled_to_cut_straggler_p99(
    save_table, benchmark_metrics
):
    warm, requests, stragglers = _straggler_requests()
    assert stragglers >= 4, "chaos plan produced too few stragglers"

    plain, _ = _run_straggler_trial(warm, requests, DETECTION_OFF)
    stuck_before = benchmark_metrics.counter("serving.stuck_shards").total()
    recycled, restarts = _run_straggler_trial(warm, requests, DETECTION_ON)

    plain_p50, plain_p99 = _percentile(plain, 0.50), _percentile(plain, 0.99)
    recycled_p50 = _percentile(recycled, 0.50)
    recycled_p99 = _percentile(recycled, 0.99)
    requeued = benchmark_metrics.counter("serving.requeued").total()

    save_table(
        "overload_stragglers",
        render_table(
            ["run", "p50 ms", "p99 ms", "max ms", "restarts"],
            [
                [
                    label,
                    round(_percentile(s, 0.50) * 1e3, 1),
                    round(_percentile(s, 0.99) * 1e3, 1),
                    round(max(s) * 1e3, 1),
                    worker_restarts,
                ]
                for label, s, worker_restarts in (
                    ("detection off", plain, "-"),
                    ("detection on", recycled, restarts),
                )
            ]
            + [["p99 cut", "-", f"{plain_p99 / recycled_p99:.1f}x", "-", "-"]],
            title=(
                f"Stuck-worker recycling: {MEASURED} requests, {stragglers} "
                f"stuck {STUCK.stuck_s * 1e3:.0f} ms sleeps (seed "
                f"{STUCK.seed}), 2 shards, stuck_timeout_s="
                f"{DETECTION_ON.stuck_timeout_s}, drain_timeout_s="
                f"{DETECTION_ON.drain_timeout_s}"
            ),
        ),
    )

    # With detection off every stuck sleep reaches the client.  With it
    # on, each wedged worker is recycled and its request requeued
    # (attempt bumped, so the deterministic fault does not re-fire).
    assert plain_p99 >= STUCK.stuck_s * 0.9
    assert stuck_before == 0
    assert restarts >= stragglers
    assert requeued >= stragglers
    assert recycled_p99 <= plain_p99 / 3, (
        f"stuck detection only cut p99 {plain_p99 * 1e3:.1f} ms -> "
        f"{recycled_p99 * 1e3:.1f} ms"
    )
    # Both p50s sit under a millisecond, so timer noise needs the
    # absolute slack.
    assert recycled_p50 <= 1.2 * plain_p50 + 1e-3, (
        f"stuck detection moved p50 {plain_p50 * 1e3:.2f} ms -> "
        f"{recycled_p50 * 1e3:.2f} ms"
    )
