"""The global observation point the simulators report through.

Instrumentation contract
------------------------
Every hook site in the hot paths (:mod:`repro.systolic`,
:mod:`repro.hdl.simulator`) is written as::

    if OBS.enabled:
        OBS.count("array.cycles")

``OBS`` is a process-wide singleton whose ``enabled`` flag is a plain
attribute — when no metrics registry or tracer is installed the entire
cost of the instrumentation is one attribute load and a falsy branch per
site, which keeps the uninstrumented simulation within measurement noise
(asserted by the test-suite's disabled-mode equivalence tests).

Enable observation for a region of code with the :func:`observe` context
manager::

    registry, tracer = MetricsRegistry(), SpanTracer(detail="state")
    with observe(metrics=registry, tracer=tracer):
        ModularExponentiator(ctx, engine="behavioral").exponentiate(m, e)
    tracer.write("out.json")          # open in Perfetto
    print(registry.render_text())

Either half may be omitted; nesting restores the previous installation on
exit, so library code can layer sessions safely.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.observability.metrics import MetricsRegistry
from repro.observability.occupancy import OccupancyRecorder
from repro.observability.trace import CycleClock, SpanTracer

__all__ = ["Observer", "OBS", "observe"]


class Observer:
    """Facade bundling the installed metrics registry and span tracer.

    All recording methods are safe to call whichever halves are
    installed: a missing backend turns the call into a no-op.  Hot paths
    should still guard with ``if OBS.enabled`` so the disabled case pays
    nothing beyond the flag test.
    """

    __slots__ = (
        "enabled",
        "trace_states",
        "trace_cycles",
        "metrics",
        "tracer",
        "occupancy",
        "flightrec",
        "clock",
    )

    def __init__(self) -> None:
        self.metrics: Optional[MetricsRegistry] = None
        self.tracer: Optional[SpanTracer] = None
        self.occupancy: Optional["OccupancyRecorder"] = None
        # Flight-recorder hub (repro.observability.flightrec); typed loosely
        # to keep this module import-light.  Deliberately *not* part of
        # ``enabled``: the recorder hooks test ``OBS.flightrec`` directly,
        # so arming a black box does not switch on the counting paths.
        self.flightrec: Optional[Any] = None
        self.clock = CycleClock()
        self.enabled = False
        # Pre-computed detail flags so hook sites test one attribute.
        self.trace_states = False
        self.trace_cycles = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        occupancy: Optional["OccupancyRecorder"] = None,
        flightrec: Optional[Any] = None,
    ) -> None:
        """Install backends; the tracer's clock becomes the session clock."""
        self.metrics = metrics
        self.tracer = tracer
        self.occupancy = occupancy
        self.flightrec = flightrec
        self.clock = tracer.clock if tracer is not None else CycleClock()
        self.enabled = (
            metrics is not None or tracer is not None or occupancy is not None
        )
        self.trace_states = tracer is not None and tracer.detail in ("state", "cycle")
        self.trace_cycles = tracer is not None and tracer.detail == "cycle"

    def uninstall(self) -> None:
        self.install(None, None)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def tick(self, cycles: int = 1) -> None:
        """Advance the session's cycle clock (one charged clock edge)."""
        self.clock.now += cycles

    @property
    def now(self) -> int:
        return self.clock.now

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1, **labels: Any) -> None:
        m = self.metrics
        if m is not None:
            m.counter(name).inc(amount, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        m = self.metrics
        if m is not None:
            m.gauge(name).set(value, **labels)

    def record(self, name: str, value: float, **labels: Any) -> None:
        """Observe ``value`` into the named histogram."""
        m = self.metrics
        if m is not None:
            m.histogram(name).observe(value, **labels)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "sim", **args: Any) -> None:
        t = self.tracer
        if t is not None:
            t.begin(name, cat, **args)

    def end(self, **args: Any) -> None:
        t = self.tracer
        if t is not None:
            t.end(**args)

    @contextmanager
    def span(self, name: str, cat: str = "sim", **args: Any) -> Iterator[None]:
        self.begin(name, cat, **args)
        try:
            yield
        finally:
            self.end()

    def complete(
        self, name: str, ts: int, dur: int, cat: str = "sim", **args: Any
    ) -> None:
        t = self.tracer
        if t is not None:
            t.complete(name, ts, dur, cat, **args)

    def instant(self, name: str, cat: str = "sim", **args: Any) -> None:
        t = self.tracer
        if t is not None:
            t.instant(name, cat, **args)

    def counter_event(self, name: str, value: float, cat: str = "sim") -> None:
        t = self.tracer
        if t is not None:
            t.counter(name, value, cat)


#: The process-wide observation point. Disabled (all no-op) by default.
OBS = Observer()


@contextmanager
def observe(
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
    occupancy: Optional[OccupancyRecorder] = None,
    flightrec: Optional[Any] = None,
) -> Iterator[Observer]:
    """Install ``metrics``/``tracer``/``occupancy``/``flightrec`` on :data:`OBS`.

    The previous installation (usually: nothing) is restored on exit, so
    sessions nest and exceptions cannot leave instrumentation enabled.
    """
    prev = (OBS.metrics, OBS.tracer, OBS.occupancy, OBS.flightrec)
    OBS.install(metrics, tracer, occupancy, flightrec)
    try:
        yield OBS
    finally:
        OBS.install(*prev)
