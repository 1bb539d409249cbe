"""The batch executor both serving planes share, and the inline plane.

The service runs on one of two planes.  The **shard** plane
(:mod:`repro.serving.shard`) ships each coalesced batch to a warm
worker process homed by its batch key; the **inline** plane (:class:`InlinePool`)
runs it on the caller's thread.  Either way the batch goes through one
function, :func:`execute_batch`: the pre-execute deadline check, lane
grouping, the chaos-aware backend call, one result row per request.  The
shard worker calls it in the child; the inline pool calls it before
``submit_batch`` returns, so its futures come back already resolved.

Both pools share the **bounded in-flight window** (:class:`SlotWindow`):
at most ``queue_limit`` submitted-but-unfinished requests.  A submission
past the bound raises :class:`~repro.errors.QueueFull` immediately —
backpressure is explicit and the queue can never grow without bound or
deadlock the submitter.  Callers that prefer flow control over rejection
block on ``wait_for_capacity`` between attempts.  The in-flight depth is
exported as the ``serving.queue_depth`` gauge.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from typing import Any, ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.errors import DeadlineExceeded, ParameterError, QueueFull
from repro.montgomery.params import MontgomeryContext
from repro.observability import OBS, SpanTracer, flightrec_armed, observe
from repro.robustness.chaos import ChaosConfig, FaultPlan
from repro.serving.request import ModExpRequest
from repro.serving.scheduler import BatchKey, batch_key, lane_groups

__all__ = [
    "SlotWindow",
    "InlinePool",
    "execute_batch",
    "execute_with_chaos",
    "worker_label",
]


class SlotWindow:
    """Bounded in-flight slot accounting, shared by both pools.

    One instance tracks how many submitted-but-unfinished requests a
    pool has admitted.  :meth:`reserve` applies the bound (raising
    :class:`~repro.errors.QueueFull` past it), :meth:`release` frees one
    future's slot exactly once however many times it is called (result,
    abandonment, shutdown may race), :meth:`release_many` does the same
    for a whole result frame's futures under one lock, and :meth:`wait`
    blocks callers that prefer flow control over rejection.  The current
    depth is exported as the ``serving.queue_depth`` gauge on every
    change.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ParameterError(f"queue_limit must be >= 1, got {limit}")
        self.limit = limit
        self._inflight = 0
        self._cond = threading.Condition()

    @property
    def depth(self) -> int:
        return self._inflight

    def _gauge(self) -> None:
        if OBS.enabled:
            OBS.gauge("serving.queue_depth", self._inflight)

    def reserve(self, slots: int = 1, *, elastic: bool = False) -> None:
        """Admit ``slots`` requests or raise :class:`QueueFull`.

        ``elastic`` admits an oversized reservation when the window is
        empty — a batch larger than the whole window must not deadlock a
        ``wait``-mode submitter that can never see enough free slots.
        """
        with self._cond:
            over = self._inflight + slots > self.limit
            if over and not (elastic and self._inflight == 0):
                raise QueueFull(
                    f"worker queue full ({self._inflight}/{self.limit} "
                    f"in flight, {slots} requested); retry later"
                )
            self._inflight += slots
            self._gauge()

    def release(self, future: Future) -> bool:
        """Release ``future``'s slot — exactly once, however often called.

        Runs when the result lands *and* from explicit abandonment; the
        per-future flag (checked under the lock) makes the paths
        race-free, so a slot can never be double-freed (which would
        corrupt the window) nor leaked (which would deadlock it).
        Returns ``True`` if this call released the slot.
        """
        with self._cond:
            if getattr(future, "_repro_released", False):
                return False
            future._repro_released = True
            self._inflight -= 1
            self._gauge()
            self._cond.notify_all()
            return True

    def release_many(self, futures: Sequence[Future]) -> int:
        """:meth:`release` every future of ``futures`` under one lock.

        The same per-future flag applies, so a future already released
        (abandoned, say) is skipped.  Waiters are woken once.  Returns
        how many slots this call released.
        """
        with self._cond:
            released = 0
            for future in futures:
                if not getattr(future, "_repro_released", False):
                    future._repro_released = True
                    released += 1
            if released:
                self._inflight -= released
                self._gauge()
                self._cond.notify_all()
            return released

    def cancel_reservation(self, slots: int = 1) -> None:
        """Back out slots reserved for a submission that never happened."""
        with self._cond:
            self._inflight -= slots
            self._gauge()
            self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None, *, slots: int = 1) -> bool:
        """Block until ``slots`` requests would be admitted (or ``timeout``).

        The predicate mirrors :meth:`reserve` including its elastic
        escape hatch (an empty window admits any size), so a waiter
        holding an oversized batch cannot spin on a window that is
        below the limit yet still too full for the whole batch.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight + slots <= self.limit or self._inflight == 0,
                timeout=timeout,
            )


# ----------------------------------------------------------------------
# The batch executor
# ----------------------------------------------------------------------

def worker_label() -> str:
    """The inline plane's worker label: ``main`` or the thread's name."""
    thread = threading.current_thread()
    return "main" if thread is threading.main_thread() else thread.name


def execute_with_chaos(
    backend: Any,
    ctx: MontgomeryContext,
    request: ModExpRequest,
    chaos: Optional[ChaosConfig],
    attempt: int,
    allow_kill: bool,
    arm_flightrec: bool = False,
):
    """Run one request, with its own ``ctx``, under the (possibly inactive) fault plan.

    Kill / exception / latency faults fire before the backend runs; a
    ``bitflip`` decision lands either as a real register upset inside the
    netlist simulator (backends exposing ``execute_with_register_fault``)
    or as a post-hoc XOR into the result — silent either way, by design:
    only the verification layer can catch it.

    When the config carries a ``flightrec_dir``, executions that inject a
    register flip — and any execution with ``arm_flightrec=True`` (retries
    of verify failures, where the corruption source is unknown) — run with
    an armed flight-recorder hub: the SEU fires the black box and the
    post-mortem bundle (VCD + request context) lands in the dump
    directory, tagged with this request id so the parent can find it.
    """
    if chaos is None or not chaos.active:
        return backend.execute(ctx, request)
    plan = FaultPlan(chaos)
    decision = plan.decide(request.request_id, attempt, allow_kill=allow_kill)
    plan.apply_pre(decision, request.request_id)  # may raise / exit / sleep
    is_reg_flip = (
        decision.kind == "bitflip"
        and chaos.register_faults
        and hasattr(backend, "execute_with_register_fault")
    )
    hub = None
    if is_reg_flip or arm_flightrec:
        hub = chaos.make_flightrec_hub()
        if hub is not None:
            hub.set_context(
                request_id=request.request_id,
                backend=getattr(backend, "name", type(backend).__name__),
                seed=chaos.seed,
                attempt=attempt,
            )
    if is_reg_flip:
        rng = random.Random(
            f"chaos-reg|{chaos.seed}|{request.request_id}|{attempt}"
        )
        if OBS.enabled:
            OBS.count("chaos.injected", kind="register-flip")
        with flightrec_armed(hub):
            return backend.execute_with_register_fault(ctx, request, rng)
    with flightrec_armed(hub):
        result = backend.execute(ctx, request)
    if decision.kind == "bitflip":
        corrupted = plan.corrupt_result(
            decision, result.value, request.modulus
        )
        result = type(result)(corrupted, result.cycles)
    return result


def error_row(request_id: str, exc: BaseException) -> Dict[str, Any]:
    """A failed request's result row; ``exc`` stays for in-process callers."""
    return {
        "id": request_id,
        "error_type": type(exc).__name__,
        "check": str(getattr(exc, "check", "")),
        "error": str(exc) or type(exc).__name__,
        "exc": exc,
    }


def execute_batch(
    backend: Any,
    contexts: Sequence[MontgomeryContext],
    requests: Sequence[ModExpRequest],
    *,
    chaos: Optional[ChaosConfig] = None,
    attempt: int = 0,
    allow_kill: bool = False,
    spans: bool = False,
) -> List[Dict[str, Any]]:
    """Execute one coalesced batch; one result row per request, in order.

    ``contexts[i]`` is the Montgomery context of ``requests[i]``.  A
    request that expired while queued or in transit gets a typed
    :class:`~repro.errors.DeadlineExceeded` row instead of a modexp
    nobody is waiting for.  Backends declaring ``capabilities.lanes > 1``
    cut the requests by :func:`~repro.serving.scheduler.batch_key` (a
    shard frame may mix keys) and run each key's same-exponent requests
    as one bit-sliced :meth:`execute_many` sweep (wall time amortized
    evenly over the group), one batch key per call; everything else
    runs one :func:`execute_with_chaos` call per request.  Lane packing
    is suspended under chaos: every request needs its own fault
    decision, which a lock-step sweep cannot honour.

    A row is ``{"id", "value", "wall_us"[, "cycles"]}`` or an
    :func:`error_row`.  With ``spans`` each execution runs under a fresh
    local span tracer and its row gains ``"span": {"cycles", "events"}``,
    which the caller adopts under a ``serving.request`` span; a lane
    group's session rides on its first request's row.
    """
    rows: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    live: List[int] = []
    for pos, request in enumerate(requests):
        if request.expired():
            if OBS.enabled:
                OBS.count("serving.deadline_expired", where="worker")
            rows[pos] = error_row(
                request.request_id,
                DeadlineExceeded("deadline passed before execution", where="worker"),
            )
        else:
            live.append(pos)
    caps = backend.capabilities
    if caps.lanes > 1 and chaos is None:
        # A shard frame may carry several batch keys; a lane group never
        # spans two (one width for rtl, one (modulus, l) for the chip).
        by_key: Dict[BatchKey, List[int]] = {}
        for pos in live:
            by_key.setdefault(batch_key(caps, requests[pos]), []).append(pos)
        groups = [
            group
            for positions in by_key.values()
            for group in lane_groups(
                positions,
                caps.lanes,
                mixed=caps.mixed_exponent_lanes,
                exponent_of=lambda pos: requests[pos].exponent,
            )
        ]
    else:
        groups = [[pos] for pos in live]
    for group in groups:
        if OBS.enabled:
            OBS.count("serving.lane_groups", packed="yes" if len(group) > 1 else "no")
            OBS.record("serving.lane_group_size", len(group), backend=backend.name)
        tracer = SpanTracer() if spans else None
        session = (
            observe(
                metrics=OBS.metrics,
                tracer=tracer,
                occupancy=OBS.occupancy,
                flightrec=OBS.flightrec,
            )
            if tracer is not None
            else nullcontext()
        )
        t0 = time.perf_counter()
        try:
            with session:
                if len(group) == 1:
                    outs = [
                        execute_with_chaos(
                            backend,
                            contexts[group[0]],
                            requests[group[0]],
                            chaos,
                            attempt,
                            allow_kill,
                        )
                    ]
                else:
                    outs = backend.execute_many(
                        [contexts[pos] for pos in group],
                        [requests[pos] for pos in group],
                    )
        except BaseException as exc:
            for pos in group:
                rows[pos] = error_row(requests[pos].request_id, exc)
            continue
        wall_us = (time.perf_counter() - t0) * 1e6 / len(group)
        for pos, out in zip(group, outs):
            row: Dict[str, Any] = {
                "id": requests[pos].request_id,
                "value": out.value,
                "wall_us": wall_us,
            }
            if out.cycles is not None:
                row["cycles"] = out.cycles
            if tracer is not None:
                first = pos == group[0]
                row["span"] = {
                    "cycles": tracer.clock.now if first else 0,
                    "events": tracer.events if first else [],
                }
            rows[pos] = row
    return rows  # type: ignore[return-value]


def row_payload(row: Dict[str, Any], worker: str) -> Tuple[Any, ...]:
    """A value row as the collector's ``(value, cycles, wall_us, worker, span)``."""
    return (
        row["value"],
        row.get("cycles"),
        row.get("wall_us", 0.0),
        worker,
        row.get("span"),
    )


def cheapest_capable(registry: Any, probe: ModExpRequest, *, fallback: Any) -> Any:
    """The registry backend with the lowest estimated cost for ``probe``.

    The brownout controller's "cheap backends" level trades fidelity for
    throughput; each plane makes the trade against the registry it
    executes from.
    """
    best, best_cost = fallback, None
    for candidate in registry:
        if candidate.reject_reason(probe) is not None:
            continue
        cost = candidate.estimate_cost(probe)
        if best_cost is None or cost < best_cost:
            best, best_cost = candidate, cost
    return best


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------

class WindowedPool:
    """The pool surface the service relies on besides the ``submit_batch``
    and ``shutdown`` each plane defines."""

    queue_limit: int
    _window: SlotWindow

    @property
    def depth(self) -> int:
        """Current in-flight request count (the queue-depth gauge value)."""
        return self._window.depth

    @property
    def load(self) -> float:
        """Window occupancy in ``[0, 1]`` — the brownout pressure signal."""
        return min(self._window.depth / max(self.queue_limit, 1), 1.0)

    def abandon(self, future: Future) -> bool:
        """Give up on one request (deadline blown): free its slot now.

        ``future.cancel()`` alone is not enough: a request already
        executing cannot be cancelled and would otherwise hold its slot
        until it finishes (possibly never, if wedged).  The result may
        still arrive later; it then finds the slot already released.
        Returns ``True`` if this call released the slot.
        """
        future.cancel()
        if self._window.release(future):
            if OBS.enabled:
                OBS.count("serving.abandoned")
            return True
        return False

    def wait_for_capacity(
        self, timeout: Optional[float] = None, *, slots: int = 1
    ) -> bool:
        """Block until a ``slots``-request batch would be admitted."""
        return self._window.wait(timeout, slots=slots)

    def dispatch_scope(self) -> ContextManager[None]:
        """The scope one dispatch's ``submit_batch`` calls run in.

        Nothing to collect here: every batch is executed or sent as it
        is submitted.  The shard pool overrides it to send one frame per
        target shard.
        """
        return nullcontext()

    def __enter__(self) -> "WindowedPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


class InlinePool(WindowedPool):
    """The inline plane: every batch executes on the caller's thread.

    :meth:`submit_batch` runs the batch through :func:`execute_batch`
    with the service's own backend instance before it returns, so every
    future it hands back is already resolved and the window never holds
    more than the batch being executed.  Request timeouts therefore
    cannot interrupt an inline execution: the collector sees a finished
    result, however long it took.  Chaos kills degrade to exceptions
    here — a real ``os._exit`` would take the service down with it.

    The backend's hook sites feed the caller's observation session
    directly, so no telemetry crosses any boundary.
    """

    kind = "inline"
    workers = 1

    def __init__(
        self,
        backend: Any,
        *,
        registry: Any,
        queue_limit: Optional[int] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.backend = backend
        self.registry = registry
        self.chaos = chaos
        self.queue_limit = queue_limit if queue_limit is not None else 4
        self._window = SlotWindow(self.queue_limit)
        self._cheap: Optional[Any] = None  # resolved on the first cheap batch
        self._closed = False

    def place(self, batches: Sequence[Any]) -> List[int]:
        """Every batch runs on the one inline executor, index 0."""
        return [0] * len(batches)

    def submit_batch(
        self,
        requests: Sequence[ModExpRequest],
        *,
        contexts: Sequence[MontgomeryContext],
        cheap_mode: bool = False,
        shard: Optional[int] = None,
    ) -> List[Future]:
        """Execute one coalesced batch now; one resolved future per request.

        ``contexts[i]`` is the Montgomery context of ``requests[i]``.
        ``shard`` (a :meth:`place` target) is accepted for parity with
        the shard pool; there is only one place to run.
        """
        if self._closed:
            raise QueueFull("worker pool is shut down")
        if not requests:
            return []
        self._window.reserve(len(requests), elastic=True)
        backend = self.backend
        if cheap_mode:
            if self._cheap is None:
                self._cheap = cheapest_capable(
                    self.registry, requests[0], fallback=self.backend
                )
            backend = self._cheap
        try:
            rows = execute_batch(backend, contexts, requests, chaos=self.chaos)
        except BaseException:
            self._window.cancel_reservation(len(requests))
            raise
        worker = worker_label()
        futures: List[Future] = []
        for row in rows:
            future: Future = Future()
            if "value" in row:
                future.set_result(row_payload(row, worker))
            else:
                future.set_exception(row["exc"])
            futures.append(future)
        self._window.release_many(futures)
        return futures

    def shutdown(self, *, wait: bool = True, cancel_pending: bool = False) -> None:
        self._closed = True
