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

2. **Hedged stragglers** — a seeded chaos plan wedges ~10% of requests
   (stuck worker sleeps, the slow-but-alive failure mode) on a two-shard
   pool.  The same workload runs hedging-off then hedging-on: after the
   p99-derived delay the service re-issues the straggler to the other
   shard (with the attempt index bumped, so the deterministic fault does
   not re-fire) and the first result wins.  Hedging must cut the
   straggler p99 at least in half on the same seed.

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
    """A seeded request set whose hedges race *clean* re-executions.

    The fault plan is deterministic per ``(request_id, attempt)``, so the
    benchmark picks ids where attempt 0 is clean or stuck (the straggler
    population) and attempt 1 — what a hedge or requeue would draw — is
    always clean.  Warmup ids are fully clean.
    """
    plan = FaultPlan(STUCK)
    n = random_odd_modulus(768, random.Random("ovl-hedge"))
    rng = random.Random("ovl-hedge-ops")
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


def _run_hedge_trial(warm, requests, *, hedge: bool) -> list:
    # p90, not p99: the reservoir's first sample rides the worker spawn
    # (~hundreds of ms) and a p99 delay would stay pinned to it for the
    # whole run, firing every hedge far too late to rescue anything.
    overload = OverloadConfig(
        hedge=hedge,
        hedge_quantile=90.0,
        hedge_min_samples=8,
        hedge_min_delay_s=0.02,
    )
    # Stuck sleeps would read as latency strikes and drain the shard
    # mid-benchmark; health reactions are measured elsewhere.
    health = HealthConfig(degrade_factor=1e9, stuck_timeout_s=60.0)
    latencies = []
    with ModExpService(
        backend="integer",
        workers=2,
        worker_kind="shard",
        chaos=STUCK,
        overload=overload,
        health=health,
    ) as service:
        for request in warm:  # spawn workers, warm the hedge reservoir
            service.process([request])
        for request in requests:
            t0 = time.perf_counter()
            (result,) = service.process([request])
            latencies.append(time.perf_counter() - t0)
            assert result.ok, result.error
            assert result.value == pow(
                request.base, request.exponent, request.modulus
            )
    return latencies


def test_hedging_cuts_straggler_p99(save_table, benchmark_metrics):
    warm, requests, stragglers = _straggler_requests()
    assert stragglers >= 4, "chaos plan produced too few stragglers"

    plain = _run_hedge_trial(warm, requests, hedge=False)
    hedged = _run_hedge_trial(warm, requests, hedge=True)

    plain_p99 = _percentile(plain, 0.99)
    hedged_p99 = _percentile(hedged, 0.99)
    fired = benchmark_metrics.counter("serving.hedges_fired").total()
    wins = benchmark_metrics.counter("serving.hedge_wins").total(winner="hedge")

    save_table(
        "overload_hedging",
        render_table(
            ["run", "p50 ms", "p99 ms", "max ms"],
            [
                [
                    label,
                    round(_percentile(s, 0.50) * 1e3, 1),
                    round(_percentile(s, 0.99) * 1e3, 1),
                    round(max(s) * 1e3, 1),
                ]
                for label, s in (("hedging off", plain), ("hedging on", hedged))
            ]
            + [[
                "p99 cut",
                "-",
                f"{plain_p99 / hedged_p99:.1f}x",
                f"hedges fired={int(fired)} won={int(wins)}",
            ]],
            title=(
                f"Hedged stragglers: {MEASURED} requests, {stragglers} "
                f"stuck {STUCK.stuck_s * 1e3:.0f} ms sleeps (seed "
                f"{STUCK.seed}), 2 shards, first result wins"
            ),
        ),
    )

    # The same seed with hedging off eats every stuck sleep; with
    # hedging on the re-dispatch (attempt bumped, so the deterministic
    # fault does not re-fire) rescues the tail.
    assert plain_p99 >= STUCK.stuck_s * 0.9
    assert fired >= stragglers
    assert wins >= 1
    assert hedged_p99 < plain_p99 / 2, (
        f"hedging only cut p99 {plain_p99 * 1e3:.1f} ms -> "
        f"{hedged_p99 * 1e3:.1f} ms"
    )
