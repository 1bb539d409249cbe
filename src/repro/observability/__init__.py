"""Observability layer: metrics registry, span tracer, global hook point.

Three pieces, designed to be used together but separable:

* :class:`MetricsRegistry` (:mod:`repro.observability.metrics`) —
  counters / gauges / histograms with labels and JSON snapshots;
* :class:`SpanTracer` (:mod:`repro.observability.trace`) — a nested-span
  timeline over a simulated-cycle clock, exported as Chrome trace-event
  JSON for Perfetto / ``chrome://tracing``;
* :data:`OBS` + :func:`observe` (:mod:`repro.observability.observer`) —
  the process-wide hook point the instrumented simulators report through,
  a no-op unless a session is installed;
* :meth:`MetricsRegistry.merge` and :meth:`SpanTracer.adopt_span` —
  fold a worker process's session (shipped home in the shard plane's
  result frames) into the parent's registry and timeline;
* :func:`diff_snapshots` (:mod:`repro.observability.baseline`) — the
  snapshot-vs-baseline regression gate behind ``repro obs diff``;
* :class:`OccupancyRecorder` + the analytic ``2i+j`` model
  (:mod:`repro.observability.occupancy`) — per-cell busy/idle sampling
  for the systolic array and lane-fill accounting for the bit-sliced
  engines;
* the utilization profiler (:mod:`repro.observability.profiler`) —
  phase/occupancy/queue attribution behind ``repro profile``.

See ``docs/OBSERVABILITY.md`` for the hook-point inventory and a guided
tour, and ``examples/trace_exponentiation.py`` for an end-to-end run.
"""

from repro.observability.baseline import (
    DEFAULT_IGNORE,
    check_requirements,
    diff_snapshots,
    load_snapshot,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.flightrec import (
    CaptureWindow,
    FlightRecorder,
    FlightRecorderHub,
    PostMortemBundle,
    TriggerSpec,
    find_bundles,
)
from repro.observability.flightrec import armed as flightrec_armed
from repro.observability.observer import OBS, Observer, observe
from repro.observability.occupancy import (
    OccupancyRecorder,
    analytic_idle_fraction,
    schedule_busy_mask,
)
from repro.observability.profiler import (
    attribute_cycles,
    attribute_serving,
    export_utilization_gauges,
    render_report,
)
from repro.observability.trace import (
    CycleClock,
    REQUEST_SPAN,
    SpanTracer,
    TRACE_DETAILS,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "Observer",
    "observe",
    "CaptureWindow",
    "FlightRecorder",
    "FlightRecorderHub",
    "PostMortemBundle",
    "TriggerSpec",
    "find_bundles",
    "flightrec_armed",
    "OccupancyRecorder",
    "analytic_idle_fraction",
    "schedule_busy_mask",
    "attribute_cycles",
    "attribute_serving",
    "export_utilization_gauges",
    "render_report",
    "CycleClock",
    "SpanTracer",
    "TRACE_DETAILS",
    "REQUEST_SPAN",
    "validate_chrome_trace",
    "DEFAULT_IGNORE",
    "check_requirements",
    "diff_snapshots",
    "load_snapshot",
]
