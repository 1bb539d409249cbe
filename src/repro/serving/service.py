"""The modexp serving engine: registry + scheduler + one of two planes.

:class:`ModExpService` is the facade every entry point uses — the
``repro serve`` JSON-lines loop, ``repro batch`` file runs, the example
scripts and the benchmarks.  Lifecycle of one request:

1. **validate** — the backend's capability check turns unservable
   requests into immediate failure results;
2. **coalesce** — the batch scheduler groups requests by batch key
   (``(modulus, l)``, or the operand width for the lock-step lane
   backends) and pre-computes the Montgomery constants once per distinct
   ``(modulus, l)``;
3. **dispatch** — each batch becomes one ``submit_batch`` call on the
   plane's pool (on the shard plane the batches of one dispatch then
   travel as one frame per shard); saturation either blocks the submitter
   (``on_full="wait"``, batch mode) or rejects with ``QueueFull``
   (``on_full="reject"``, the serving loop);
4. **collect** — futures are harvested in dispatch order with the
   per-request timeout enforced; every outcome (value, timeout, backend
   failure, rejection) becomes a :class:`ModExpResult` and the results
   come back in input order.

Two planes execute batches, both through
:func:`repro.serving.pool.execute_batch`: the **inline** plane
(:class:`~repro.serving.pool.InlinePool`) runs it on the caller's
thread; the **shard** plane (:class:`~repro.serving.shard.ShardPool`)
ships it to a warm worker process homed by the batch key.

Instrumentation goes through the observability layer: wrap calls in
:func:`repro.observability.observe` and the registry fills with
``serving.requests{status=,backend=}`` counters, per-backend/per-worker
``serving.request_cycles`` / ``serving.request_wall_us`` histograms,
``serving.batch_size`` histograms and the ``serving.queue_depth`` gauge.
Shard workers ship their per-batch metrics home in the result frame
(merged with ``worker=shardN`` labels) and, when a tracer is installed,
one span session per request, which the collector adopts under a
``serving.request`` span on the shard's track.

Completed requests that report cycles are additionally checked against
the :class:`~repro.serving.slo.SLOPolicy` cycle budget (the paper's
Eq. (10) envelope), filling ``serving.slo_checks`` /
``serving.slo_violations``.

**Self-healing** threads the :mod:`repro.robustness` layer through the
same lifecycle: completed values pass through the
:class:`~repro.robustness.verify.ResultVerifier` (corruption becomes a
:class:`~repro.errors.FaultDetected` failure and increments
``serving.faults_detected``); failures are retried with backoff under a
:class:`~repro.robustness.retry.RetryPolicy` and service-wide budget;
per-backend :class:`~repro.robustness.breaker.CircuitBreaker`\\ s trip on
consecutive failures or SLO violations and (with ``failover=True``)
route retries to the next-cheapest capable backend; a dead shard worker
is respawned and its in-flight batches requeued exactly once; and a
seeded :class:`~repro.robustness.chaos.ChaosConfig` injects worker
kills, exceptions, latency and register/result bit flips so every one of
those paths is exercised deterministically in tests and drills.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import replace
from typing import Any, Deque, Dict, Iterable, List, Optional, TextIO, Tuple

from repro.errors import (
    DeadlineExceeded,
    FaultDetected,
    ParameterError,
    QueueFull,
    RequestShed,
    WireFormatError,
)
from repro.montgomery.params import MontgomeryContext
from repro.observability import OBS, REQUEST_SPAN
from repro.observability.flightrec import find_bundles
from repro.robustness.breaker import BreakerBoard, BreakerConfig
from repro.robustness.chaos import ChaosConfig
from repro.robustness.retry import RetryBudget, RetryPolicy
from repro.robustness.verify import ResultVerifier, VerifyPolicy
from repro.serving.backends import (
    BackendRegistry,
    ModExpBackend,
    default_registry,
)
from repro.serving.health import HealthConfig
from repro.serving.overload import (
    BrownoutController,
    CoDelShedder,
    OverloadConfig,
    TokenBucket,
)
from repro.serving.pool import InlinePool, execute_with_chaos, worker_label
from repro.serving.request import ModExpRequest, ModExpResult
from repro.serving.scheduler import Batch, coalesce
from repro.serving.shard import ShardPool
from repro.serving.slo import SLOPolicy
from repro.serving.wire import parse_request_line, result_to_json

__all__ = ["ModExpService"]


class _Entry:
    """One dispatched (or immediately resolved) request in flight."""

    __slots__ = (
        "request",
        "input_index",
        "batch_index",
        "future",
        "result",
        "submitted_at",
        "admitted_at",
        "context",
    )

    def __init__(self, request: ModExpRequest, input_index: int) -> None:
        self.request = request
        self.input_index = input_index
        self.batch_index: Optional[int] = None
        self.future: Optional[Future] = None
        self.result: Optional[ModExpResult] = None
        self.submitted_at: float = 0.0
        self.admitted_at: float = 0.0  # sojourn clock for the CoDel shedder
        self.context: Optional[MontgomeryContext] = None  # the request's own ctx


class ModExpService:
    """Multi-worker modular-exponentiation service with backpressure.

    Parameters
    ----------
    backend:
        Backend name (resolved in ``registry``) or a backend instance.
    registry:
        Backend registry; defaults to :func:`default_registry`.
    workers:
        Shard worker count on the shard plane.
    worker_kind:
        The plane: ``"inline"`` runs every batch on the caller's thread
        with this service's backend instance — request timeouts cannot
        interrupt an inline execution; ``"shard"`` runs ``workers``
        pre-forked warm processes (:mod:`repro.serving.shard`), batches
        consistent-hashed by batch key and shipped as single
        binary frames, the backend resolved by name from the default
        registry.  ``None`` (the default) picks ``"shard"`` when
        ``workers > 1``, else ``"inline"``.
    queue_limit:
        Bounded in-flight window in requests (default 4 inline,
        ``max_batch × workers`` on shards: room for one full batch per
        shard, so batches homed on one shard cannot fill the window while
        another shard idles).
    max_batch:
        Coalescing chunk size and the serve loop's flush threshold.
    default_timeout:
        Per-request timeout in seconds applied when a request carries
        none (``None`` = wait forever).
    slo:
        Cycle-budget policy applied to every completed request that
        reports cycles (default: the Eq. (10) envelope via
        :class:`SLOPolicy`); ``None`` disables SLO tracking.
    verify:
        :class:`~repro.robustness.verify.VerifyPolicy` for online result
        verification (``None`` = off).  Corrupted values become
        :class:`~repro.errors.FaultDetected` failures (and retry, when
        retries are on).
    chaos:
        :class:`~repro.robustness.chaos.ChaosConfig` fault-injection
        plan (``None`` = no injection).  Worker kills are only honoured
        on the shard plane (inline they degrade to exceptions); lane
        packing is disabled while chaos is active so every request gets
        its own fault decision.
    retry:
        :class:`~repro.robustness.retry.RetryPolicy` (``None`` = fail
        on first error).  Retries run inline on the collector thread —
        never through a possibly-sick pool — and are always verified
        when verification is enabled.
    retry_budget:
        Service-wide cap on concurrently outstanding retries.
    breaker:
        :class:`~repro.robustness.breaker.BreakerConfig` enabling
        per-backend circuit breakers (``None`` = no breakers).
    failover:
        When True, retries may be routed to the next-cheapest capable
        backend from the registry when the primary's breaker is open
        (or simply as an alternate opinion after a failure).
    overload:
        :class:`~repro.serving.overload.OverloadConfig` enabling the
        graceful-degradation ladder (``None`` = off, the default —
        nothing below changes behaviour):

        * **deadlines** — requests get an absolute ``expires_at`` from
          their ``budget_s`` (or the config's per-class default) at
          admission, checked again at dispatch, while awaiting, and
          before every retry (backoff is clamped to the remaining
          budget);
        * **admission** — a token bucket paces intake, with a reserve
          slice only interactive traffic may draw from;
        * **shedding** — a CoDel controller sheds *batch*-class
          requests whose queue sojourn stays over target;
        * **brownout** — sustained pressure steps down verification
          sampling, reroutes to cheaper backends, then suspends batch
          admission entirely, in that order.
    health:
        :class:`~repro.serving.health.HealthConfig` for the shard
        pool's per-shard health state machines (shard pools only;
        ``None`` = pool defaults).  Their stuck detector is the one
        straggler path: a worker that holds a frame past
        ``stuck_timeout_s`` is recycled and its requests requeued.
    """

    def __init__(
        self,
        *,
        backend: Any = "integer",
        registry: Optional[BackendRegistry] = None,
        workers: int = 1,
        worker_kind: Optional[str] = None,
        queue_limit: Optional[int] = None,
        max_batch: int = 32,
        default_timeout: Optional[float] = None,
        slo: Optional[SLOPolicy] = SLOPolicy(),
        verify: Optional[VerifyPolicy] = None,
        chaos: Optional[ChaosConfig] = None,
        retry: Optional[RetryPolicy] = None,
        retry_budget: int = 32,
        breaker: Optional[BreakerConfig] = None,
        failover: bool = False,
        overload: Optional[OverloadConfig] = None,
        health: Optional[HealthConfig] = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.backend: ModExpBackend = (
            self.registry.get(backend) if isinstance(backend, str) else backend
        )
        if worker_kind is None:
            worker_kind = "shard" if workers > 1 else "inline"
        if worker_kind not in ("inline", "shard"):
            raise ParameterError(
                f"unknown worker kind {worker_kind!r}; one of ('inline', 'shard')"
            )
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if worker_kind == "shard" and self.backend.name not in default_registry():
            raise ParameterError(
                "shard workers resolve backends by name from the default "
                f"registry, which has no {self.backend.name!r}; "
                "use worker_kind='inline' for custom backends"
            )
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.default_timeout = default_timeout
        # The chaos plan must exist before the pool: shard workers take
        # it at fork time.
        self.chaos = chaos if (chaos is not None and chaos.active) else None
        self.pool: Any
        if worker_kind == "shard":
            self.pool = ShardPool(
                shards=workers,
                backend=self.backend.name,
                queue_limit=(
                    queue_limit if queue_limit is not None else max_batch * workers
                ),
                chaos=self.chaos,
                health=health,
            )
        else:
            self.pool = InlinePool(
                self.backend,
                registry=self.registry,
                queue_limit=queue_limit,
                chaos=self.chaos,
            )
        self.slo = slo
        self.verify_policy = verify if (verify is not None and verify.enabled) else None
        self._verifier = (
            ResultVerifier(self.verify_policy) if self.verify_policy else None
        )
        self.retry = retry
        self._retry_budget = RetryBudget(retry_budget)
        self.breakers = BreakerBoard(breaker) if breaker is not None else None
        self.failover = failover
        self.overload = overload
        self._admission: Optional[TokenBucket] = None
        self._shedder: Optional[CoDelShedder] = None
        self._brownout: Optional[BrownoutController] = None
        if overload is not None:
            if overload.admit_rate is not None:
                self._admission = TokenBucket(
                    overload.admit_rate,
                    overload.admit_burst,
                    reserve=overload.interactive_reserve,
                )
            self._shedder = CoDelShedder(
                overload.shed_target_s, overload.shed_interval_s
            )
            if overload.brownout:
                self._brownout = BrownoutController(
                    high=overload.brownout_high,
                    low=overload.brownout_low,
                    dwell_s=overload.brownout_dwell_s,
                )
        self._batch_counter = 0
        self._id_seq = 0

    def _check_slo(
        self, request: ModExpRequest, cycles: int, worker: str, backend_name: str
    ) -> None:
        if self.slo is None:
            return
        budget = self.slo.cycle_budget(request)
        if OBS.enabled:
            OBS.count("serving.slo_checks", backend=backend_name)
        if cycles > budget:
            if OBS.enabled:
                OBS.count(
                    "serving.slo_violations", backend=backend_name, worker=worker
                )
            if self.breakers is not None:
                self.breakers.get(backend_name).record_slo_violation()

    # ------------------------------------------------------------------
    # Overload control: admission, shedding, brownout
    # ------------------------------------------------------------------
    @staticmethod
    def _count_shed(reason: str, priority: str) -> None:
        if OBS.enabled:
            OBS.count(
                "serving.shed_requests", reason=reason, **{"class": priority}
            )

    def _admit(
        self, request: ModExpRequest, now: float
    ) -> Tuple[ModExpRequest, Optional[BaseException]]:
        """Admission gate: stamp the absolute deadline, apply the ladder.

        Returns the (possibly deadline-stamped) request and ``None``, or
        the refusal exception: :class:`DeadlineExceeded` for requests
        already past their budget, :class:`RequestShed` for brownout
        batch suspension and token-bucket refusal.  Interactive traffic
        may draw from the bucket's reserve slice and is never refused by
        the brownout gate — under overload it is batch that gives way.
        """
        if self.overload is None:
            # Deadlines belong to the overload ladder: without it they are
            # ignored, and dropping them here keeps shard workers from
            # checking them either.
            if request.expires_at is not None:
                request = replace(request, expires_at=None)
            return request, None
        if request.expires_at is None:
            budget = request.budget_s
            if budget is None:
                budget = self.overload.budget_for(request.priority)
            if budget is not None:
                request = replace(request, expires_at=now + budget)
        if request.expired(now):
            if OBS.enabled:
                OBS.count("serving.deadline_expired", where="admission")
            return request, DeadlineExceeded(
                "deadline passed before admission", where="admission"
            )
        if (
            self._brownout is not None
            and self._brownout.batch_suspended
            and request.priority == "batch"
        ):
            self._count_shed("brownout", request.priority)
            return request, RequestShed(
                "batch admission suspended (brownout level 3)", reason="brownout"
            )
        if self._admission is not None:
            if not self._admission.try_admit(request.priority):
                self._count_shed("admission", request.priority)
                return request, RequestShed(
                    f"admission rate exceeded for {request.priority} traffic",
                    reason="admission",
                )
            if OBS.enabled:
                OBS.gauge("serving.admission_level", self._admission.level)
        return request, None

    def _update_brownout(self) -> None:
        """Feed the pool's window occupancy into the brownout controller."""
        if self._brownout is None:
            return
        level = self._brownout.update(getattr(self.pool, "load", 0.0))
        if OBS.enabled:
            OBS.gauge("serving.brownout_level", level)

    def _shed_at_dispatch(self, entries: List[_Entry]) -> List[_Entry]:
        """Dequeue-time gates: expired deadlines, then CoDel shedding.

        Runs just before a batch's entries are submitted to the pool.
        Entries that fail a gate get their failure result attached (the
        collector returns it directly) and are excluded from submission;
        the survivors are returned.  CoDel sheds *batch*-class requests
        only — interactive latency is protected by shedding around it,
        never by dropping it.
        """
        if self.overload is None:
            return entries
        keep: List[_Entry] = []
        now = time.monotonic()
        for entry in entries:
            request = entry.request
            if request.expired(now):
                if OBS.enabled:
                    OBS.count("serving.deadline_expired", where="dispatch")
                    OBS.count(
                        "serving.requests",
                        status="expired",
                        backend=self.backend.name,
                    )
                entry.result = ModExpResult.failure(
                    request.request_id,
                    DeadlineExceeded(
                        "deadline passed before dispatch", where="dispatch"
                    ),
                    backend=self.backend.name,
                    batch_index=entry.batch_index,
                )
                continue
            if self._shedder is not None and request.priority == "batch":
                sojourn = now - entry.admitted_at if entry.admitted_at else 0.0
                if self._shedder.offer(sojourn):
                    self._count_shed("codel", request.priority)
                    if OBS.enabled:
                        OBS.count(
                            "serving.requests",
                            status="shed",
                            backend=self.backend.name,
                        )
                    entry.result = ModExpResult.failure(
                        request.request_id,
                        RequestShed(
                            f"queue sojourn {sojourn * 1e3:.1f} ms over the "
                            f"{self._shedder.target_s * 1e3:.1f} ms target",
                            reason="codel",
                        ),
                        backend=self.backend.name,
                        batch_index=entry.batch_index,
                    )
                    continue
            keep.append(entry)
        return keep

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self, batches: List[Batch], entries_by_id: Dict[int, Deque[_Entry]], *, on_full: str
    ) -> List[_Entry]:
        """Submit each coalesced batch as one pool call; entries in dispatch order.

        The pool places the whole dispatch once (on the shard plane,
        hot batches spread over the alive shards; see
        :func:`~repro.serving.shard.place_batches`).  Admission is per
        batch: one ``submit_batch`` per batch, to its placed shard,
        returns one future per request, and backpressure is
        batch-granular — a batch that does not fit the window is
        rejected or waited out whole.  Transport is per shard: the loop
        runs in the pool's ``dispatch_scope``, so on the shard plane the
        batches of one dispatch travel as one frame per target shard,
        sent when the scope closes or before a wait.  The inline plane
        runs each batch as it is submitted; its futures come back
        already resolved.
        """
        cheap = self._brownout is not None and self._brownout.reroute_cheap
        dispatched: List[_Entry] = []
        targets = self.pool.place(batches)
        with self.pool.dispatch_scope():
            for batch, target in zip(batches, targets):
                entries = [entries_by_id[id(r)].popleft() for r in batch.requests]
                for entry, context in zip(entries, batch.contexts):
                    entry.batch_index = batch.index
                    entry.context = context
                dispatched.extend(entries)
                live = self._shed_at_dispatch(entries)
                if not live:
                    continue
                while True:
                    try:
                        now = time.monotonic()
                        futures = self.pool.submit_batch(
                            [e.request for e in live],
                            contexts=[e.context for e in live],
                            cheap_mode=cheap,
                            shard=target,
                        )
                        for entry, future in zip(live, futures):
                            entry.submitted_at = now
                            entry.future = future
                        if OBS.enabled:
                            OBS.count(
                                "serving.requests",
                                len(live),
                                status="accepted",
                                backend=self.backend.name,
                            )
                        break
                    except QueueFull as exc:
                        if on_full == "reject":
                            for entry in live:
                                entry.result = ModExpResult.failure(
                                    entry.request.request_id,
                                    exc,
                                    backend=self.backend.name,
                                    batch_index=batch.index,
                                )
                            if OBS.enabled:
                                OBS.count(
                                    "serving.requests",
                                    len(live),
                                    status="rejected",
                                    backend=self.backend.name,
                                )
                            break
                        # Wait for the whole batch's worth of slots, not
                        # just one — a below-limit-but-too-full window
                        # would otherwise bounce the waiter straight back
                        # into QueueFull in a hot loop.
                        self.pool.wait_for_capacity(timeout=0.5, slots=len(live))
        return dispatched

    # ------------------------------------------------------------------
    # Collection, verification, recovery
    # ------------------------------------------------------------------
    def _await_future(self, entry: _Entry) -> Tuple[str, Any]:
        """Harvest one dispatched future.

        Returns ``("ok", payload_tuple)``, ``("timeout", exc)`` or
        ``("error", exc)``.  On timeout the future's pool slot is
        *abandoned*, not merely cancelled: a request already executing
        cannot be cancelled and would otherwise pin its in-flight slot
        until (if ever) it finishes — enough stuck requests would
        saturate the bounded window permanently.
        """
        request, future = entry.request, entry.future
        assert future is not None
        timeout = request.timeout if request.timeout is not None else self.default_timeout
        remaining: Optional[float] = None
        if timeout is not None:
            remaining = max(0.0, entry.submitted_at + timeout - time.monotonic())
        # The absolute deadline also caps the wait — there is no point
        # blocking past the moment the answer stops being useful.
        budget = request.remaining_s()
        if budget is not None:
            budget = max(0.0, budget)
            remaining = budget if remaining is None else min(remaining, budget)
        try:
            payload = future.result(timeout=remaining)
            if OBS.enabled:
                # Time from submission to harvest minus the execution wall
                # time = time the request sat in the pool's queue (plus
                # any harvest skew, hence the clamp).
                wait_us = (time.monotonic() - entry.submitted_at) * 1e6 - payload[2]
                OBS.record(
                    "serving.queue_wait_us",
                    wait_us if wait_us > 0 else 0.0,
                    backend=self.backend.name,
                )
            return "ok", payload
        except FuturesTimeout:
            self.pool.abandon(future)
            if request.expired():
                if OBS.enabled:
                    OBS.count("serving.deadline_expired", where="await")
                return "timeout", DeadlineExceeded(
                    "deadline passed while awaiting the result", where="await"
                )
            return "timeout", TimeoutError(f"request exceeded {timeout}s")
        except BaseException as exc:
            return "error", exc

    def _rid(self, entry: _Entry) -> str:
        return entry.request.request_id or f"idx{entry.input_index}"

    def _verify_value(
        self, entry: _Entry, value: int, attempt: int, backend_name: str
    ) -> Optional[FaultDetected]:
        """Run the verification policy over one completed value."""
        if self._verifier is None:
            return None
        if not self.verify_policy.should_verify(self._rid(entry), attempt):
            return None
        if self._brownout is not None:
            # Brownout step one: thin verification before touching any
            # traffic.  Deterministic per (request, attempt) so a given
            # value's fate does not depend on collection order.
            scale = self._brownout.verify_scale()
            if scale < 1.0:
                rng = random.Random(f"brownout-verify|{self._rid(entry)}|{attempt}")
                if rng.random() >= scale:
                    if OBS.enabled:
                        OBS.count("serving.verify_skipped", reason="brownout")
                    return None
        if OBS.enabled:
            OBS.count("serving.verified", backend=backend_name)
        started = time.perf_counter()
        try:
            self._verifier.check(entry.request, value)
        except FaultDetected as exc:
            self._attach_bundle(exc, entry)
            return exc
        finally:
            if OBS.enabled:
                OBS.record(
                    "serving.verify_wall_us",
                    (time.perf_counter() - started) * 1e6,
                    backend=backend_name,
                )
        return None

    def _attach_bundle(self, exc: FaultDetected, entry: _Entry) -> None:
        """Point a detected fault at its flight-recorder bundle, if any.

        The faulting execution may have run in a shard worker — its
        hub lives in another interpreter — so the handoff is the dump
        directory on disk: the newest bundle tagged with this request id
        becomes the error's ``bundle_path``.
        """
        chaos = self.chaos
        if exc.bundle_path is not None or chaos is None or not chaos.flightrec_dir:
            return
        found = find_bundles(chaos.flightrec_dir, self._rid(entry))
        if found:
            exc.bundle_path = found[-1]
            if OBS.enabled:
                OBS.count("serving.flightrec_bundles_attached")

    def _note_failure(self, exc: BaseException, backend_name: str) -> None:
        """Account one failed execution: detection metrics + breaker."""
        if isinstance(exc, FaultDetected) and OBS.enabled:
            OBS.count(
                "serving.faults_detected", check=exc.check, backend=backend_name
            )
        if self.breakers is not None:
            self.breakers.get(backend_name).record_failure()

    def _note_success(self, backend_name: str) -> None:
        if self.breakers is not None:
            self.breakers.get(backend_name).record_success()

    def _route(self, request: ModExpRequest) -> Optional[ModExpBackend]:
        """Pick the backend for a retry attempt, breaker- and cost-aware.

        The primary backend keeps priority while its breaker admits
        traffic.  With ``failover=True`` the alternates are the registry
        backends that can serve the request, ordered by
        :meth:`~repro.serving.backends.ModExpBackend.estimate_cost`
        (cheapest first).  ``None`` means no backend is currently
        willing — the caller fails the request without burning budget.
        Breaker ``allow()`` is only consulted in priority order, so
        half-open probe slots are never claimed for backends that are
        not actually used.
        """
        primary = self.backend
        candidates: List[ModExpBackend] = [primary]
        if self.failover:
            alternates = [
                b
                for b in self.registry
                if b.name != primary.name and b.reject_reason(request) is None
            ]
            alternates.sort(key=lambda b: b.estimate_cost(request))
            candidates.extend(alternates)
        for candidate in candidates:
            if self.breakers is None or self.breakers.allow(candidate.name):
                return candidate
        return None

    def _collect(self, entry: _Entry) -> ModExpResult:
        """Resolve one entry: harvest, verify, and recover as configured.

        The recovery ladder, in order: (1) completed values run through
        the verification policy — detected corruption becomes a
        failure; (2) failures consume the retry policy, re-executing
        inline on this thread (optionally failing over to another
        backend when the primary's breaker is open), with every retried
        value verified.  Whatever survives is the result.  (A request
        whose shard worker died was already requeued once by the shard
        pool before its future failed.)
        """
        if entry.result is not None:  # rejected or pre-resolved
            return entry.result
        request = entry.request
        primary = self.backend.name
        used = primary
        attempt = 0
        status, payload = self._await_future(entry)

        if status == "ok":
            value = payload[0]
            fault = self._verify_value(entry, value, attempt, used)
            if fault is not None:
                status, payload = "error", fault
            else:
                self._note_success(used)
        if status in ("error", "timeout"):
            self._note_failure(payload, used)
            status, payload, used, attempt = self._retry_loop(
                entry, status, payload, attempt
            )

        if status != "ok":
            terminal = "timeout" if status == "timeout" else "failed"
            if OBS.enabled:
                OBS.count("serving.requests", status=terminal, backend=used)
            return ModExpResult.failure(
                request.request_id,
                payload,
                backend=used,
                batch_index=entry.batch_index,
            )

        value, cycles, wall_us, worker, span = payload
        if OBS.enabled:
            OBS.count("serving.requests", status="completed", backend=used)
            # A completed-but-late result still violated its deadline;
            # the CI drill gates on this being zero for interactive.
            late = request.remaining_s()
            if late is not None and late < 0:
                OBS.count(
                    "serving.deadline_violations",
                    **{"class": request.priority},
                )
            if span is not None and OBS.tracer is not None:
                OBS.tracer.adopt_span(
                    REQUEST_SPAN,
                    span["events"],
                    span["cycles"],
                    worker=worker,
                    request_id=self._rid(entry),
                    backend=used,
                )
            if cycles is not None:
                OBS.record(
                    "serving.request_cycles", cycles, backend=used, worker=worker
                )
            OBS.record(
                "serving.request_wall_us", wall_us, backend=used, worker=worker
            )
            # Per-worker busy accounting: summing each worker's execution
            # wall time gives its busy timeline share of the run.
            OBS.count("serving.worker_busy_us", int(wall_us), worker=worker)
        if cycles is not None:
            self._check_slo(request, cycles, worker, used)
        return ModExpResult.success(
            request,
            value,
            backend=used,
            cycles=cycles,
            wall_us=wall_us,
            batch_index=entry.batch_index,
        )

    def _retry_loop(
        self, entry: _Entry, status: str, payload: Any, attempt: int
    ) -> Tuple[str, Any, str, int]:
        """Re-execute a failed request under the retry policy.

        Retries run inline on the collector thread — deliberately not
        through the pool, whose workers may be the thing that is sick —
        with ``allow_kill=False`` (an injected kill inline would take
        down the service itself; the plan degrades it to an exception).
        Returns ``(status, payload, backend_used, attempt)``.
        """
        primary = self.backend.name
        used = primary
        policy = self.retry
        if policy is None or isinstance(payload, ParameterError):
            return status, payload, used, attempt
        request = entry.request
        rid = self._rid(entry)
        while attempt + 1 < policy.max_attempts and status != "ok":
            remaining = request.remaining_s()
            if remaining is not None and not policy.worth_retrying(attempt, remaining):
                # Fail fast: the budget cannot cover another attempt, so
                # burning it on a doomed retry only delays the failure.
                if OBS.enabled:
                    OBS.count("serving.deadline_expired", where="retry")
                if remaining <= 0 and not isinstance(payload, DeadlineExceeded):
                    status, payload = "timeout", DeadlineExceeded(
                        "deadline passed during retries", where="retry"
                    )
                break
            if not self._retry_budget.try_acquire():
                if OBS.enabled:
                    OBS.count("serving.retry_budget_exhausted")
                break
            retry_fault = isinstance(payload, FaultDetected)
            try:
                attempt += 1
                target = self._route(request)
                if target is None:
                    if OBS.enabled:
                        OBS.count("serving.no_backend_available")
                    break
                delay = policy.backoff(rid, attempt, request.remaining_s())
                if delay > 0:
                    time.sleep(delay)
                if OBS.enabled:
                    OBS.count("serving.retries", backend=target.name)
                ctx = entry.context
                assert ctx is not None
                try:
                    # Retries of a detected fault run with the flight
                    # recorder armed: if the corruption reproduces (a
                    # deterministic register flip, a sick backend), the
                    # black box captures signal-level evidence this time.
                    started = time.perf_counter()
                    out = execute_with_chaos(
                        target,
                        ctx,
                        request,
                        self.chaos,
                        attempt,
                        False,
                        arm_flightrec=retry_fault,
                    )
                    payload = (
                        out.value,
                        out.cycles,
                        (time.perf_counter() - started) * 1e6,
                        worker_label(),
                        None,
                    )
                except BaseException as exc:
                    status, payload = "error", exc
                    self._note_failure(exc, target.name)
                    continue
                fault = self._verify_value(entry, payload[0], attempt, target.name)
                if fault is not None:
                    status, payload = "error", fault
                    self._note_failure(fault, target.name)
                    continue
                status = "ok"
                used = target.name
                self._note_success(used)
                if used != primary and OBS.enabled:
                    OBS.count("serving.failovers", **{"from": primary, "to": used})
            finally:
                self._retry_budget.release()
        return status, payload, used, attempt

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def process(
        self, requests: Iterable[ModExpRequest], *, on_full: str = "wait"
    ) -> List[ModExpResult]:
        """Serve a workload; results come back in input order.

        ``on_full="wait"`` (batch mode) applies flow control against the
        bounded pool — nothing is rejected, the submitter blocks.
        ``on_full="reject"`` (serving mode) turns saturation into
        ``QueueFull`` failure results.
        """
        if on_full not in ("wait", "reject"):
            raise ParameterError(f"on_full must be 'wait' or 'reject', got {on_full!r}")
        ordered = list(requests)
        results: List[Optional[ModExpResult]] = [None] * len(ordered)
        self._update_brownout()

        # Capability screen + overload admission: unservable, refused
        # and already-expired requests resolve immediately.
        servable: List[ModExpRequest] = []
        entries_by_id: Dict[int, Deque[_Entry]] = {}
        admitted_at = time.monotonic()
        for index, request in enumerate(ordered):
            reason = self.backend.reject_reason(request)
            if reason is not None:
                if OBS.enabled:
                    OBS.count(
                        "serving.requests",
                        status="unsupported",
                        backend=self.backend.name,
                    )
                results[index] = ModExpResult.failure(
                    request.request_id,
                    ParameterError(reason),
                    backend=self.backend.name,
                )
                continue
            request, refusal = self._admit(request, admitted_at)
            if refusal is not None:
                if OBS.enabled:
                    status = (
                        "expired"
                        if isinstance(refusal, DeadlineExceeded)
                        else "shed"
                    )
                    OBS.count(
                        "serving.requests", status=status, backend=self.backend.name
                    )
                results[index] = ModExpResult.failure(
                    request.request_id,
                    refusal,
                    backend=self.backend.name,
                )
                continue
            if not request.request_id and (
                self.chaos is not None or self._verifier is not None
            ):
                # Chaos decisions and verification sampling key their RNGs
                # on the request id; give anonymous requests a stable one.
                self._id_seq += 1
                request = replace(request, request_id=f"req{self._id_seq}")
            servable.append(request)
            entry = _Entry(request, index)
            entry.admitted_at = admitted_at
            entries_by_id.setdefault(id(request), deque()).append(entry)

        batches = coalesce(
            servable,
            self.backend,
            max_batch=self.max_batch,
            start_index=self._batch_counter,
        )
        self._batch_counter += len(batches)
        dispatched = self._dispatch(batches, entries_by_id, on_full=on_full)
        for entry in dispatched:
            results[entry.input_index] = self._collect(entry)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def serve(
        self,
        in_stream: Iterable[str],
        out_stream: TextIO,
        *,
        on_full: str = "reject",
    ) -> Dict[str, int]:
        """JSON-lines service loop: one request per line, one result per line.

        Requests buffer until ``max_batch`` are pending, a blank line
        arrives (an explicit flush marker), or the stream ends; each
        flush coalesces and dispatches the chunk and writes its results
        in input order.  Malformed lines produce an error result line
        immediately.  Returns counters: served / ok / failed / rejected /
        parse_errors.
        """
        stats = {"served": 0, "ok": 0, "failed": 0, "rejected": 0, "parse_errors": 0}
        buffer: List[ModExpRequest] = []

        def emit(result: ModExpResult) -> None:
            out_stream.write(result_to_json(result) + "\n")
            stats["served"] += 1
            if result.ok:
                stats["ok"] += 1
            elif result.error_type in ("QueueFull", "RequestShed"):
                # Shedding is load regulation, not failure: both count
                # as rejections the client may retry elsewhere/later.
                stats["rejected"] += 1
            else:
                stats["failed"] += 1

        def flush() -> None:
            if not buffer:
                return
            chunk, buffer[:] = list(buffer), []
            for result in self.process(chunk, on_full=on_full):
                emit(result)
            _flush_stream(out_stream)

        for line in in_stream:
            stripped = line.strip()
            if not stripped:
                flush()
                continue
            try:
                request = parse_request_line(stripped)
            except WireFormatError as exc:
                stats["parse_errors"] += 1
                if OBS.enabled:
                    OBS.count(
                        "serving.requests",
                        status="malformed",
                        backend=self.backend.name,
                    )
                emit(
                    ModExpResult.failure(
                        getattr(exc, "request_id", ""), exc, backend=self.backend.name
                    )
                )
                _flush_stream(out_stream)
                continue
            buffer.append(request)
            if len(buffer) >= self.max_batch:
                flush()
        flush()
        return stats

    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        self.pool.shutdown(wait=wait, cancel_pending=True)

    def __enter__(self) -> "ModExpService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _flush_stream(stream: TextIO) -> None:
    flush = getattr(stream, "flush", None)
    if flush is not None:
        flush()
