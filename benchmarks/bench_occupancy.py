"""Occupancy profiler validation: analytic model, lane fill, disabled cost.

Three claims from the utilization-profiler PR, measured:

1. **The sampled occupancy matches the analytic ``2i+j`` model.**  The
   RTL array's per-cycle busy mask integrates to exactly ``l+2`` busy
   cycles per cell over a multiplication, so measured idle fraction at
   l=64 must land within ``idle_fraction_tolerance`` of
   ``1 - (l+2)/(3l+4)`` (corrected) / ``1 - (l+2)/(3l+3)`` (paper) —
   for both the RTL array source and the gate-level engine's
   controller-derived MUL-cycle stream.

2. **Lane-fill accounting counts what the bit-sliced engine wastes.**
   An 8-of-64-lane dispatch must report ``hdl.lane_fill`` p50 at the
   baseline floor and ``hdl.wasted_lane_cycles`` equal to
   ``(lanes - used) * cycles`` exactly.

3. **Profiling disabled costs < ``max_disabled_overhead_pct`` on the
   ``repro bench-sim`` workload.**  Every occupancy hook sits inside a
   pre-existing ``if OBS.enabled:`` guard (array/compiled hot loops) or
   behind one boolean per MUL cycle (interpreted gate loop), so the
   disabled path executes essentially no new instructions.  The A/B here
   times the bench-sim lane-batch core in alternating pairs with
   observation fully off (order swapped every pair, so host drift cancels)
   and gates the median of the per-pair B/A ratios — it bounds
   disabled-path cost plus run-to-run jitter — and then times it with
   full metrics+occupancy profiling on, reporting the marginal cost of
   *enabled* profiling alongside (informational, not gated).

Artifacts: ``results/occupancy.txt`` (all three sections) with floors
asserted from ``baselines/occupancy.json``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

from repro.analysis.tables import render_table
from repro.montgomery.params import precompute_montgomery_constants
from repro.observability import (
    MetricsRegistry,
    OccupancyRecorder,
    analytic_idle_fraction,
    observe,
)
from repro.systolic.array import SystolicArrayRTL
from repro.systolic.mmmc_netlist import GateLevelMMMC
from repro.utils.rng import random_odd_modulus

L = 64
LANES = 64
BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines", "occupancy.json"
)


def _floors() -> dict:
    with open(BASELINE) as fh:
        return json.load(fh)


def _operands(l: int, seed: str = "occupancy"):
    rng = random.Random(seed)
    n = random_odd_modulus(l, rng)
    return n, rng.randrange(n), rng.randrange(n)


def _best_of(repeat: int, fn) -> float:
    best = float("inf")
    for _ in range(max(repeat, 1)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_idle_fraction_matches_analytic(save_table):
    """Claim 1: measured idle fraction vs the ``2i+j`` model, both modes."""
    floors = _floors()
    tol = floors["idle_fraction_tolerance"]
    n, x, y = _operands(L)

    rows = []
    for mode in ("corrected", "paper"):
        model = analytic_idle_fraction(L, mode)

        occ = OccupancyRecorder()
        with observe(metrics=MetricsRegistry(), occupancy=occ):
            SystolicArrayRTL(L, mode=mode).run_multiplication(x, y, n)
        rtl_idle = occ.idle_fraction("array")

        occ = OccupancyRecorder()
        with observe(metrics=MetricsRegistry(), occupancy=occ):
            GateLevelMMMC(L, mode=mode, simulator="compiled").multiply(x, y, n)
        gate_idle = occ.idle_fraction("gate")

        for source, idle in (("array (RTL)", rtl_idle), ("gate (netlist)", gate_idle)):
            rows.append(
                [
                    mode,
                    source,
                    f"{model:.4f}",
                    f"{idle:.4f}",
                    f"{idle - model:+.4f}",
                ]
            )
            assert abs(idle - model) <= tol, (
                f"{mode}/{source}: measured idle {idle:.4f} deviates from "
                f"analytic {model:.4f} by more than {tol}"
            )

    save_table(
        "occupancy_model",
        render_table(
            ["mode", "source", "analytic idle", "measured idle", "delta"],
            rows,
            title=f"l={L} occupancy vs 2i+j model (tolerance {tol})",
        ),
    )


def test_lane_fill_accounting(save_table):
    """Claim 2: an 8-of-64 dispatch is accounted lane for lane."""
    floors = _floors()
    used = floors["lane_fill_p50_floor"]
    n, _, _ = _operands(16)
    rng = random.Random("lane-fill")
    xs = [rng.randrange(n) for _ in range(used)]
    ys = [rng.randrange(n) for _ in range(used)]

    registry = MetricsRegistry()
    occ = OccupancyRecorder()
    vec = GateLevelMMMC(16, simulator="compiled", lanes=LANES)
    with observe(metrics=registry, occupancy=occ):
        runs = vec.multiply_lanes(xs, ys, [n] * used)

    fill = registry.histogram("hdl.lane_fill").aggregate()
    assert fill.count == 1 and fill.min == used == fill.max
    p50 = registry.histogram("hdl.lane_fill").percentile(50)
    assert p50 >= floors["lane_fill_p50_floor"], (
        f"lane_fill p50 {p50} below floor {floors['lane_fill_p50_floor']}"
    )
    wasted = registry.counter("hdl.wasted_lane_cycles").total()
    cycles = runs[0].cycles
    assert wasted == (LANES - used) * cycles, (wasted, LANES - used, cycles)
    lanes_idle = occ.idle_fraction("hdl.lanes")
    assert abs(lanes_idle - (LANES - used) / LANES) < 1e-9

    save_table(
        "occupancy_lanes",
        render_table(
            ["lanes", "used", "p50 fill", "cycles", "wasted lane-cycles", "lane idle"],
            [[LANES, used, f"{p50:g}", cycles, int(wasted), f"{lanes_idle:.1%}"]],
            title=f"lane-fill accounting, {used}-of-{LANES} dispatch at l=16",
        ),
    )


def test_profiling_overhead(save_table):
    """Claim 3: disabled profiling is free on the bench-sim lane batch."""
    floors = _floors()
    n, _, _ = _operands(L)
    rng = random.Random("overhead")
    xs = [rng.randrange(n) for _ in range(LANES)]
    ys = [rng.randrange(n) for _ in range(LANES)]
    ns = [n] * LANES
    vec = GateLevelMMMC(L, simulator="compiled", lanes=LANES)
    vec.multiply_lanes(xs, ys, ns)  # warmup: compile + trace caches

    batch = lambda: vec.multiply_lanes(xs, ys, ns)
    pairs = 31
    with observe():  # observation fully off, overriding the harness session
        # Alternating A/B pairs (order swapped every pair) cancel host
        # drift; the gate reads the median of the per-pair ratios.
        runs_a, runs_b = [], []
        for i in range(pairs):
            for runs in ((runs_a, runs_b) if i % 2 == 0 else (runs_b, runs_a)):
                runs.append(_best_of(1, batch))
    with observe(metrics=MetricsRegistry(), occupancy=OccupancyRecorder()):
        enabled = statistics.median(_best_of(1, batch) for _ in range(pairs))

    disabled_a, disabled_b = statistics.median(runs_a), statistics.median(runs_b)
    ratio = statistics.median(b / a for a, b in zip(runs_a, runs_b))
    disabled_delta = abs(ratio - 1) * 100
    base = statistics.median(runs_a + runs_b)
    enabled_overhead = (enabled - base) / base * 100

    save_table(
        "occupancy",
        render_table(
            ["configuration", "batch ms", "delta vs disabled"],
            [
                ["disabled (run A)", f"{disabled_a * 1e3:.3f}", "—"],
                [
                    "disabled (run B)",
                    f"{disabled_b * 1e3:.3f}",
                    f"{(ratio - 1) * 100:+.2f}% (median B/A pair ratio)",
                ],
                [
                    "metrics+occupancy",
                    f"{enabled * 1e3:.3f}",
                    f"{enabled_overhead:+.2f}% (enabled, informational)",
                ],
            ],
            title=(
                f"profiling cost on the bench-sim {LANES}-lane batch at l={L} "
                f"(medians of {pairs} alternating A/B pairs; disabled gate on "
                f"the median pair ratio <{floors['max_disabled_overhead_pct']}%)"
            ),
        ),
    )
    assert disabled_delta < floors["max_disabled_overhead_pct"], (
        f"disabled-path cost (incl. jitter) {disabled_delta:.2f}% exceeds "
        f"{floors['max_disabled_overhead_pct']}% — the dormant instrumentation "
        f"is no longer free"
    )
