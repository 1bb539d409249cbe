"""Serving-stack benchmark: seeded closed-loop workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload keyring --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the service up several times (median set-up time),
then runs one closed-loop client for ``--seconds`` of timed calls and
prints the end-to-end metrics, with times scaled to nominal host speed
(see ``probe.py``).  ``--trace 1`` runs the same client three
times on fresh services: untraced for a third of the seconds, then the
same calls with the layer entry points wrapped, then the same calls with
the program's metrics registry on.  It prints the per-layer metrics and a
wall-time table whose rows add up to the wrapped pass's wall time.  Every
ok result is checked against ``pow()`` outside the timed calls; any
mismatch or lost result exits non-zero without a result line.  The last
line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from typing import Callable, Dict, List, Optional, Tuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perfbench: no program source at {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)

from repro.observability import MetricsRegistry, observe  # noqa: E402
from repro.serving import ModExpService  # noqa: E402

from layers import ROWS, LayerClock  # noqa: E402
from measure import min_samples, peak_rss_mb, percentile  # noqa: E402
from probe import HostProbe  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    AccountingError,
    LoopRun,
    Workload,
    closed_loop,
    request_trace,
    start_service,
    windows,
)

#: Services built per end-to-end run; set-up time is their median.
SETUP_REPEATS = 9

Metrics = Dict[str, Tuple[float, str]]


def end_to_end(workload: Workload, seed: int, seconds: float) -> Tuple[Metrics, Dict[str, int]]:
    """Median set-up time over fresh services, then one untraced closed loop.

    Times are scaled to nominal host speed by the probe samples taken
    around them; the raw values are printed beside.
    """
    trace = request_trace(workload, seed)
    setups: List[float] = []
    with HostProbe() as probe:
        for _ in range(SETUP_REPEATS):
            probe.sample()
            service, setup_s = start_service(workload)
            setups.append(setup_s)
            if len(setups) < SETUP_REPEATS:
                service.close()
        setup_speed = probe.speed()
        loop_from = len(probe.samples)
        try:
            run = closed_loop(
                workload,
                service,
                windows(workload, trace),
                seconds=seconds,
                min_calls=min_samples(50),
                probe=probe,
            )
        finally:
            service.close()
        speed = probe.speed(loop_from)
        rss_mb = peak_rss_mb()  # the shards are joined; the probe is not
    counts = run.checked_counts()
    ok, cycles = counts["ok"], run.cycles
    latencies_ms = [s * 1e3 for s in run.latencies]
    p90 = (
        f"{percentile(latencies_ms, 90) * speed:.3f} ms"
        if len(latencies_ms) >= min_samples(90)
        else f"n/a ({len(latencies_ms)} calls, p90 needs {min_samples(90)})"
    )
    raw = {
        "throughput_rps": ok / run.wall_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "setup_s": statistics.median(setups),
    }
    print(
        f"calls: {len(run.latencies)}; latency_p90: {p90}; host speed: "
        f"{speed:.4f} in the loop, {setup_speed:.4f} in set-up; raw: "
        + ", ".join(f"{name}={value:.6g}" for name, value in raw.items())
    )
    metrics: Metrics = {
        "throughput_rps": (raw["throughput_rps"] / speed, "req/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * speed, "ms"),
        "sim_cycles_per_s": (cycles / run.wall_s / speed, "cycles/s"),
        "sim_cycles_per_req": (cycles / ok, "cycles"),
        "setup_s": (raw["setup_s"] * setup_speed, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, counts


#: Program counters the counted pass reads from the metrics registry.
COUNTERS = (
    "montgomery.precompute",
    "montgomery.precompute_cache_hits",
    "serving.lane_groups",
    "hdl.compile_cache_misses",
)


def _counters(registry: MetricsRegistry) -> Dict[str, int]:
    return {name: registry.counter(name).total() for name in COUNTERS}


def _one_pass(
    workload: Workload,
    trace: list,
    *,
    seconds: float = 0.0,
    calls: Optional[int] = None,
    on_ready: Callable[[ModExpService], None] = lambda service: None,
) -> LoopRun:
    """Set a fresh service up, call ``on_ready(service)``, run the loop."""
    service, _ = start_service(workload)
    try:
        on_ready(service)
        return closed_loop(
            workload,
            service,
            windows(workload, trace),
            seconds=seconds,
            min_calls=1,
            exact_calls=calls,
        )
    finally:
        service.close()


def per_layer(
    workload: Workload, seed: int, seconds: float
) -> Tuple[Metrics, Dict[str, int], Dict[str, float]]:
    """Three passes over the same calls, each on a fresh service.

    The plain pass runs for a third of the seconds.  The timed pass
    repeats its calls with the layer entry points wrapped (wall-time
    table, per-layer timings).  The counted pass repeats them with the
    program's metrics registry on, whose per-batch shard telemetry costs
    far more than the wrappers, so it is kept out of the timed pass.
    """
    trace = request_trace(workload, seed)
    plain = _one_pass(workload, trace, seconds=seconds / 3)
    calls = len(plain.latencies)

    clock = LayerClock()
    setup: Dict[str, float] = {}

    def start_clock(service: ModExpService) -> None:
        clock.time_backend(service.backend)
        setup["compile_s"] = clock.self_s["compiled.compile"]
        clock.reset()

    with clock.installed():
        traced = _one_pass(workload, trace, calls=calls, on_ready=start_clock)

    registry = MetricsRegistry()
    marks: Dict[str, int] = {}
    with observe(metrics=registry):
        counted = _one_pass(
            workload, trace, calls=calls, on_ready=lambda _: marks.update(_counters(registry))
        )
    totals = _counters(registry)
    run_counts = {name: totals[name] - marks[name] for name in COUNTERS}

    counts = plain.checked_counts()
    for run in (traced, counted):
        for key, value in run.checked_counts().items():
            counts[key] += value

    wall = traced.wall_s
    rows = clock.table(wall)
    sent = traced.counts["sent"]
    ok, cycles, exec_s, mmms = traced.counts["ok"], traced.cycles, traced.exec_s, traced.mmms
    trips = clock.answered()
    submits = clock.calls["shard.submit"]
    misses = run_counts["montgomery.precompute"]
    hits = run_counts["montgomery.precompute_cache_hits"]
    groups = run_counts["serving.lane_groups"]
    checks = clock.calls["verify.check"]

    def per(total: float, count: float) -> float:
        """``total / count``, or 0 where the workload never reaches the layer."""
        return total / count if count else 0.0

    def p50_ms(samples: List[float]) -> float:
        return percentile(samples, 50) * 1e3 if samples else 0.0

    def busy(shard: str) -> float:
        return sum(b.exec_s for b in trips if b.shard == shard) / wall

    metrics: Metrics = {
        "wire.json_parse_us_per_req": (rows["wire.json_parse"] / sent * 1e6, "us"),
        "wire.json_emit_us_per_req": (rows["wire.json_emit"] / sent * 1e6, "us"),
        "wire.frame_encode_us_per_batch": (per(rows["wire.frame_encode"] * 1e6, len(trips)), "us"),
        "wire.frame_bytes_per_req": (
            per(sum(b.frame_bytes for b in trips), sum(b.requests for b in trips)),
            "bytes",
        ),
        "wire.frame_decode_us_per_batch": (
            per(sum(b.decode_s for b in trips) * 1e6, len(trips)),
            "us",
        ),
        "scheduler.coalesce_us_per_req": (rows["scheduler.coalesce"] / sent * 1e6, "us"),
        "scheduler.reqs_per_batch": (clock.coalesced_requests / clock.coalesced_batches, "req"),
        "scheduler.lane_fill": (per(ok, groups * 64), "ratio"),
        "shard.submit_us_per_batch": (per(rows["shard.submit"] * 1e6, submits), "us"),
        "shard.roundtrip_ms_p50": (p50_ms([b.roundtrip_s for b in trips]), "ms"),
        "shard.transit_queue_ms_p50": (p50_ms([b.roundtrip_s - b.exec_s for b in trips]), "ms"),
        "shard.busy_share_0": (busy("shard0"), "ratio"),
        "shard.busy_share_1": (busy("shard1"), "ratio"),
        "params.precompute_misses": (misses, "count"),
        "params.precompute_hit_ratio": (per(hits, hits + misses), "ratio"),
        "backends.exec_ms_per_req": (exec_s / ok * 1e3, "ms"),
        "montgomery.mmm_per_req": (mmms / ok, "MMM"),
        "montgomery.us_per_mmm": (exec_s / mmms * 1e6, "us"),
        "compiled.kernel_compiles": (totals["hdl.compile_cache_misses"], "count"),
        "compiled.compile_s": (setup["compile_s"] + rows["compiled.compile"], "s"),
        "compiled.sim_cycles_per_exec_s": (cycles / exec_s, "cycles/s"),
        "verify.checks": (checks, "count"),
        "verify.us_per_check": (per(rows["verify.check"] * 1e6, checks), "us"),
        "trace.overhead_share": (wall / plain.wall_s - 1.0, "ratio"),
        "trace.registry_overhead_share": (counted.wall_s / plain.wall_s - 1.0, "ratio"),
    }
    for row in ROWS:
        metrics[f"{row}_share"] = (rows[row] / wall, "ratio")
    return metrics, counts, rows


def _print_table(rows: Dict[str, float]) -> None:
    wall = sum(rows.values())
    print(f"{'layer (client-thread wall time)':34} {'seconds':>10} {'share':>8}")
    for row in ROWS:
        print(f"{row:34} {rows[row]:10.4f} {rows[row] / wall:8.2%}")
    print(f"{'total (= traced wall time)':34} {wall:10.4f} {1:8.2%}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()}"
    )
    print(f"workload: {workload.why}")
    try:
        if args.trace:
            metrics, counts, rows = per_layer(workload, args.seed, args.seconds)
            _print_table(rows)
        else:
            metrics, counts = end_to_end(workload, args.seed, args.seconds)
    except AccountingError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = counts["failed"] + counts["shed"] + counts["expired"]
    print(
        f"sent={counts['sent']} ok={counts['ok']} failed={counts['failed']} "
        f"shed={counts['shed']} expired={counts['expired']} "
        f"failed_share={failed / counts['sent']:.4f} ({failed}/{counts['sent']}); "
        "every ok value equals pow()"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": counts["sent"],
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
