"""Unified utilization attribution: cycles by phase, lanes, queues, workers.

The profiler is a *reader*: it runs no workload itself.  Given the
:class:`~repro.observability.metrics.MetricsRegistry` and
:class:`~repro.observability.occupancy.OccupancyRecorder` a profiled run
filled in, it answers three questions in one report:

* **Where did the simulated cycles go?**  Phase attribution over the
  exponentiator's per-operation histogram — precompute (into the
  Montgomery domain), MMM waves (squares + multiplies), drain (the final
  ``Mont(A, 1)``).
* **How full was the hardware?**  Per-source occupancy (array cells, lane
  fill) against the analytic ``2i+j`` model.
* **Where did wall time go in serving?**  Queue wait, execution, and
  verification overhead, with per-worker busy totals.

:func:`export_utilization_gauges` additionally folds the headline numbers
into plain gauges (``hdl.idle_fraction``, ``serving.lane_fill_p50``, and
the chip-health trio ``chip.tile_busy_fraction`` / ``chip.fifo_depth_p95``
/ ``chip.waves_in_flight``) so snapshot files carry them and ``repro obs
diff --require`` can gate floors on them — the requirements engine sums
counter/gauge values but cannot evaluate histogram percentiles.

``repro profile`` wires a workload to this module; see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.observability.metrics import MetricsRegistry
from repro.observability.occupancy import OccupancyRecorder, analytic_idle_fraction

__all__ = [
    "attribute_cycles",
    "attribute_overload",
    "attribute_serving",
    "export_utilization_gauges",
    "render_report",
]

#: Gauge code -> shard health state name (mirrors serving.health's order;
#: kept literal so the observability layer does not import serving).
_HEALTH_NAMES = {0: "healthy", 1: "degraded", 2: "draining", 3: "dead"}

#: Exponentiator operation kinds -> report phase names.
_PHASES = (
    ("precompute", ("pre",)),
    ("mmm-squares", ("square",)),
    ("mmm-multiplies", ("multiply", "window-op")),
    ("drain", ("post",)),
)


def _hist_sum(registry: MetricsRegistry, name: str, **labels: Any) -> float:
    if name not in registry:
        return 0.0
    agg = registry.histogram(name).aggregate(**labels)
    return agg.sum if agg is not None else 0.0


def _hist_count(registry: MetricsRegistry, name: str, **labels: Any) -> int:
    if name not in registry:
        return 0
    agg = registry.histogram(name).aggregate(**labels)
    return agg.count if agg is not None else 0


def _hist_percentile(
    registry: MetricsRegistry, name: str, q: float, **labels: Any
) -> Optional[float]:
    if name not in registry:
        return None
    return registry.histogram(name).percentile(q, **labels)


def attribute_cycles(registry: MetricsRegistry) -> Dict[str, Any]:
    """Simulated-cycle attribution by exponentiation phase.

    Reads ``exponentiator.operation_cycles{kind=...}``; returns phase
    name -> ``{"cycles", "operations", "fraction"}`` plus a ``"total"``
    entry.  Phases absent from the run report zeros.
    """
    phases: Dict[str, Any] = {}
    total = 0.0
    for phase, kinds in _PHASES:
        cycles = sum(
            _hist_sum(registry, "exponentiator.operation_cycles", kind=k)
            for k in kinds
        )
        ops = sum(
            _hist_count(registry, "exponentiator.operation_cycles", kind=k)
            for k in kinds
        )
        phases[phase] = {"cycles": cycles, "operations": ops}
        total += cycles
    for row in phases.values():
        row["fraction"] = row["cycles"] / total if total else 0.0
    phases["total"] = {"cycles": total}
    return phases


def attribute_serving(registry: MetricsRegistry) -> Dict[str, Any]:
    """Serving wall-time attribution: queue wait, execution, verify overhead.

    All figures in microseconds, summed across backends/workers; the
    per-worker section reads the ``serving.worker_busy_us`` counter so each
    worker's busy share is visible individually.
    """
    queue_wait = _hist_sum(registry, "serving.queue_wait_us")
    execution = _hist_sum(registry, "serving.request_wall_us")
    verify = _hist_sum(registry, "serving.verify_wall_us")
    workers: Dict[str, float] = {}
    if "serving.worker_busy_us" in registry:
        for row in registry.counter("serving.worker_busy_us").snapshot():
            worker = row["labels"].get("worker", "?")
            workers[worker] = workers.get(worker, 0.0) + row["value"]
    # Sharded data plane: the pool exports one gauge sample per shard;
    # folded into {shard: {field: value}} so the report (and `repro
    # profile --json` consumers) see each shard's health individually.
    shards: Dict[str, Dict[str, float]] = {}
    for metric, field in (
        ("serving.shard_busy_fraction", "busy_fraction"),
        ("serving.shard_queue_depth", "queue_depth"),
        ("serving.shard_cache_hit_rate", "cache_hit_rate"),
        ("serving.shard_health", "health"),
    ):
        if metric in registry:
            for row in registry.gauge(metric).snapshot():
                sid = row["labels"].get("shard", "?")
                shards.setdefault(sid, {})[field] = row["value"]
    total = queue_wait + execution + verify
    return {
        "queue_wait_us": queue_wait,
        "execution_us": execution,
        "verify_us": verify,
        "total_us": total,
        "queue_wait_p50_us": _hist_percentile(registry, "serving.queue_wait_us", 50),
        "workers": workers,
        "shards": {sid: shards[sid] for sid in sorted(shards)},
        "overload": attribute_overload(registry),
    }


def _counter_by_label(
    registry: MetricsRegistry, name: str, label: str
) -> Dict[str, float]:
    """Counter totals keyed by one label's values (missing metric = {})."""
    out: Dict[str, float] = {}
    if name in registry:
        for row in registry.counter(name).snapshot():
            key = row["labels"].get(label, "?")
            out[key] = out.get(key, 0.0) + row["value"]
    return out


def attribute_overload(registry: MetricsRegistry) -> Dict[str, Any]:
    """Overload-ladder attribution: shedding, deadlines, brownout.

    Everything the graceful-degradation layer emits, folded into one
    dict so ``repro top`` / ``repro profile`` can show at a glance *how*
    the service degraded: what was shed and why, which deadlines were
    missed and where in the lifecycle, and the current brownout level.
    """
    gauges = {}
    for name, key in (
        ("serving.brownout_level", "brownout_level"),
        ("serving.admission_level", "admission_level"),
    ):
        if name in registry:
            rows = registry.gauge(name).snapshot()
            if rows:
                gauges[key] = rows[0]["value"]
    return {
        "shed_by_reason": _counter_by_label(
            registry, "serving.shed_requests", "reason"
        ),
        "shed_by_class": _counter_by_label(
            registry, "serving.shed_requests", "class"
        ),
        "deadline_expired": _counter_by_label(
            registry, "serving.deadline_expired", "where"
        ),
        "deadline_violations": _counter_by_label(
            registry, "serving.deadline_violations", "class"
        ),
        **gauges,
    }


def export_utilization_gauges(
    registry: MetricsRegistry, occupancy: Optional[OccupancyRecorder] = None
) -> None:
    """Fold headline utilization figures into gauges on ``registry``.

    Written so ``repro obs diff --require 'hdl.idle_fraction>=...'`` /
    ``'serving.lane_fill_p50>=...'`` can gate them from a snapshot file
    (the requirements engine cannot reach inside histograms).
    """
    if occupancy is not None:
        # The headline hdl.idle_fraction gauge stays single-series (no
        # labels) so `--require 'hdl.idle_fraction>=X'` gates exactly one
        # number; the per-source breakdown gets its own labelled gauge.
        primary = occupancy.idle_fraction("array")
        if primary is None:
            primary = occupancy.idle_fraction("gate")
        if primary is not None:
            registry.gauge("hdl.idle_fraction").set(primary)
            registry.gauge("hdl.busy_fraction").set(1.0 - primary)
        for source in occupancy.sources():
            idle = occupancy.idle_fraction(source)
            if idle is not None:
                registry.gauge("hdl.occupancy_idle_fraction").set(
                    idle, source=source
                )
        # Chip health: the chip.tiles track carries one busy bit per tile
        # per chip cycle, so its per-"cell" busy fractions are per-tile
        # utilization.  Exported flat for `repro top` and CI floors.
        tile_fracs = occupancy.cell_busy_fractions("chip.tiles")
        if tile_fracs:
            registry.gauge("chip.tile_busy_fraction").set(
                sum(tile_fracs) / len(tile_fracs)
            )
            for i, frac in enumerate(tile_fracs):
                registry.gauge("chip.tile_busy").set(frac, tile=str(i))
    fifo_p95 = _hist_percentile(registry, "chip.fifo_depth", 95)
    if fifo_p95 is not None:
        registry.gauge("chip.fifo_depth_p95").set(fifo_p95)
    waves = (
        registry.histogram("chip.waves").aggregate()
        if "chip.waves" in registry
        else None
    )
    if waves is not None and waves.count:
        registry.gauge("chip.waves_in_flight").set(waves.sum / waves.count)
    p50 = _hist_percentile(registry, "hdl.lane_fill", 50)
    if p50 is not None:
        registry.gauge("serving.lane_fill_p50").set(p50)
    agg = (
        registry.histogram("hdl.lane_fill").aggregate()
        if "hdl.lane_fill" in registry
        else None
    )
    if agg is not None and agg.count:
        registry.gauge("serving.lane_fill_mean").set(agg.sum / agg.count)
    wait_p50 = _hist_percentile(registry, "serving.queue_wait_us", 50)
    if wait_p50 is not None:
        registry.gauge("serving.queue_wait_p50_us").set(wait_p50)


def render_report(
    registry: MetricsRegistry,
    occupancy: Optional[OccupancyRecorder] = None,
    *,
    l: Optional[int] = None,
    mode: str = "corrected",
    heatmap_source: Optional[str] = "array",
    width: int = 72,
) -> str:
    """The unified attribution report ``repro profile`` prints.

    Sections: cycle attribution by phase, occupancy per source (with the
    analytic ``2i+j`` reference when ``l`` is given), lane fill, serving
    wall-time attribution, and the array heatmap.
    """
    lines: List[str] = ["=== utilization profile ==="]

    phases = attribute_cycles(registry)
    total = phases["total"]["cycles"]
    if total:
        lines.append("")
        lines.append("cycles by phase:")
        for phase, _ in _PHASES:
            row = phases[phase]
            lines.append(
                f"  {phase:<15} {int(row['cycles']):>12} cycles "
                f"({row['fraction']:6.1%})  ops={row['operations']}"
            )
        lines.append(f"  {'total':<15} {int(total):>12} cycles")

    if occupancy is not None and occupancy.sources():
        lines.append("")
        lines.append("occupancy by source:")
        for source in occupancy.sources():
            idle = occupancy.idle_fraction(source)
            if idle is None:
                continue
            note = ""
            if l is not None and source in ("array", "gate"):
                model = analytic_idle_fraction(l, mode)
                note = f"  (2i+j model: {model:.1%}, delta {idle - model:+.2%})"
            lines.append(f"  {source:<18} idle {idle:6.1%}{note}")

    fills = _hist_count(registry, "hdl.lane_fill")
    if fills:
        agg = registry.histogram("hdl.lane_fill").aggregate()
        p50 = _hist_percentile(registry, "hdl.lane_fill", 50)
        wasted = (
            registry.counter("hdl.wasted_lane_cycles").total()
            if "hdl.wasted_lane_cycles" in registry
            else 0
        )
        lines.append("")
        lines.append("lane fill (lanes used per bit-sliced sweep):")
        lines.append(
            f"  sweeps={fills} mean={agg.sum / agg.count:.1f} "
            f"p50={p50:g} min={agg.min:g} max={agg.max:g} "
            f"wasted_lane_cycles={int(wasted)}"
        )

    tile_fracs = (
        occupancy.cell_busy_fractions("chip.tiles") if occupancy is not None else []
    )
    if tile_fracs:
        lines.append("")
        lines.append("chip health:")
        mean_busy = sum(tile_fracs) / len(tile_fracs)
        lines.append(
            f"  tiles={len(tile_fracs)} busy mean {mean_busy:6.1%}  "
            + "  ".join(f"tile{i}={f:.1%}" for i, f in enumerate(tile_fracs))
        )
        waves = (
            registry.histogram("chip.waves").aggregate()
            if "chip.waves" in registry
            else None
        )
        if waves is not None and waves.count:
            lines.append(
                f"  waves in flight: mean {waves.sum / waves.count:.2f} "
                f"max {waves.max:g}"
            )
        fifo_p95 = _hist_percentile(registry, "chip.fifo_depth", 95)
        if fifo_p95 is not None:
            lines.append(f"  fifo depth p95: {fifo_p95:.1f}")
        lines.append("")
        lines.append(occupancy.heatmap("chip.tiles", width=width, unit="tile"))

    serving = attribute_serving(registry)
    if serving["total_us"]:
        lines.append("")
        lines.append("serving wall time:")
        for key, label in (
            ("queue_wait_us", "queue wait"),
            ("execution_us", "execution"),
            ("verify_us", "verify overhead"),
        ):
            us = serving[key]
            frac = us / serving["total_us"]
            lines.append(f"  {label:<15} {us / 1000:>10.2f} ms ({frac:6.1%})")
        if serving["workers"]:
            lines.append("  busy by worker:")
            for worker in sorted(serving["workers"]):
                lines.append(
                    f"    {worker:<20} {serving['workers'][worker] / 1000:>10.2f} ms"
                )
    if serving["shards"]:
        lines.append("")
        lines.append("shards (modulus-homed data plane):")
        for sid, row in serving["shards"].items():
            health = ""
            if "health" in row:
                health = f"  health {_HEALTH_NAMES.get(int(row['health']), '?')}"
            lines.append(
                "  shard{:<4} busy {:>6.1%}  queue {:>4.0f}  "
                "cache hit {:>6.1%}{}".format(
                    sid,
                    row.get("busy_fraction", 0.0),
                    row.get("queue_depth", 0.0),
                    row.get("cache_hit_rate", 0.0),
                    health,
                )
            )

    overload = serving["overload"]
    shed_total = sum(overload["shed_by_reason"].values())
    degraded = (
        shed_total
        or overload["deadline_expired"]
        or overload["deadline_violations"]
        or overload.get("brownout_level")
    )
    if degraded:
        lines.append("")
        lines.append("overload & degradation:")
        if shed_total:
            by_reason = "  ".join(
                f"{reason}={int(count)}"
                for reason, count in sorted(overload["shed_by_reason"].items())
            )
            by_class = "  ".join(
                f"{cls}={int(count)}"
                for cls, count in sorted(overload["shed_by_class"].items())
            )
            lines.append(f"  shed {int(shed_total)}  by reason: {by_reason}")
            lines.append(f"  {'':<5}by class:  {by_class}")
        if overload["deadline_expired"]:
            detail = "  ".join(
                f"{where}={int(count)}"
                for where, count in sorted(overload["deadline_expired"].items())
            )
            lines.append(f"  deadlines expired: {detail}")
        if overload["deadline_violations"]:
            detail = "  ".join(
                f"{cls}={int(count)}"
                for cls, count in sorted(overload["deadline_violations"].items())
            )
            lines.append(f"  completed late (violations): {detail}")
        if "brownout_level" in overload:
            lines.append(f"  brownout level: {int(overload['brownout_level'])}")

    if occupancy is not None and heatmap_source is not None:
        if occupancy.cycles(heatmap_source):
            lines.append("")
            lines.append(occupancy.heatmap(heatmap_source, width=width))

    return "\n".join(lines) + "\n"
