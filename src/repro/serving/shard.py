"""Sharded serving data plane: warm, key-homed worker processes.

A worker process starts with cold caches — the compiled-kernel LRU and
the ``precompute_montgomery_constants()`` table are per-process — so the
plane sends every batch of one batch key (see
:func:`~repro.serving.scheduler.batch_key`) to the same worker, whole
coalesced batches at a time.  Four pieces:

* :class:`ShardMap` — a consistent-hash ring that assigns every batch
  key a **home shard**.  Same key, same shard, every time — so each
  shard's caches stay hot for its home keys, the way the quad-core RSA
  processor in the related work gives each core its own key material.
  For most backends the key is ``(modulus, l)``, homed at
  :func:`placement_key`.  The lock-step lane backends (``rtl``,
  ``gate``) batch by operand width, so each width has one home shard:
  its compiled kernel is built once there and its lane sweeps serve
  every modulus of that width.  Virtual nodes smooth the key
  distribution; dead shards are skipped on the ring (their key ranges
  reassign to the next alive shard) and reclaim their ranges when
  respawned.
* :func:`place_batches` — the one placement decision per dispatch.
  Batches start on their ring owners; hot (multi-request) batches move
  to the least-loaded alive shard while that lowers the peak load, and
  single-request batches — cold keys — stay home.
* the **batch frame** wire (see :mod:`repro.serving.wire`) — the
  batches one dispatch placed on a shard travel to it as one
  length-prefixed binary message over a duplex pipe, big-int operands
  as raw bytes; the shard answers with one result frame carrying every
  outcome plus a telemetry blob for the whole frame.  No pickling, no
  per-request IPC.
* :class:`ShardPool` — the dispatcher.  Admission is per batch:
  :meth:`~ShardPool.submit_batch` reserves one
  :class:`~repro.serving.pool.SlotWindow` slot per request and returns
  one future per request resolving to the same ``(value, cycles,
  wall_us, worker, span)`` payload the inline plane produces — so the
  service's collector, verifier, retry ladder and SLO accounting do not
  know which plane ran the batch.  Transport is per shard: inside a
  :meth:`~ShardPool.dispatch_scope` the batches join one open frame per
  target, sent when the scope closes or before the submitter waits for
  capacity.

**Failure semantics.**  Failures are graded, not binary.  Each shard
slot carries a :class:`~repro.serving.health.ShardHealth` machine
(healthy → degraded → draining → dead): slow batches and corrupt frames
are strikes that *degrade*; a stuck worker or persistent strikes start a
*graceful drain* (ring ranges rehome, in-flight work gets a grace
period, then the worker is recycled); only pipe EOF is *death*.  A
malformed frame in either direction — the worker NACKs a batch it
cannot decode; the parent catches a result frame that fails its crc —
requeues the affected frame exactly once without killing anything,
because the pipe's message boundaries keep the stream parseable past a
damaged payload.  A shard death (chaos kill, OOM, crash) surfaces
as EOF on its pipe.  The reader thread marks the shard dead on the ring,
respawns a fresh worker (counting ``serving.worker_restarts``), marks it
alive again, and requeues every frame the dead worker held — exactly
once, whole, to the ring owner of its first request, with the attempt
index bumped so a deterministic chaos kill does not simply re-fire.  A
frame whose requeue *also* dies fails its futures with
:class:`~repro.errors.ShardFailure`, handing the requests to the
service's inline retry ladder.  A worker sends its result frame only
after finishing the whole frame, and the pipe delivers buffered frames
before EOF, so a request is never both answered and requeued.

**Telemetry.**  When the parent observes, each worker wraps every frame
in a fresh local observation session and ships the registry snapshot
home in the result frame; the parent merges it with ``shard=N`` /
``worker=shardN`` labels.  When the parent also has a tracer, the span
flag asks the worker for one span session per request; the service
adopts each under a ``serving.request`` span on the shard's track.
The per-shard ``montgomery.precompute`` / ``montgomery.precompute_cache_hits``
counters that fall out are the homing proof: a warm shard serves its
home keys from cache.  The pool additionally maintains
``serving.shard_queue_depth``, ``serving.shard_busy_fraction`` and
``serving.shard_cache_hit_rate`` gauges per shard for the dashboards.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import threading
import time
from contextlib import contextmanager, nullcontext
from concurrent.futures import Future, InvalidStateError
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceeded,
    FaultDetected,
    InjectedFault,
    ParameterError,
    QueueFull,
    ServingError,
    ShardFailure,
    WireFormatError,
)
from repro.montgomery.params import MontgomeryContext, precompute_montgomery_constants
from repro.observability import OBS, MetricsRegistry, observe
from repro.robustness.chaos import ChaosConfig, FaultPlan
from repro.serving.backends import default_registry
from repro.serving.health import HealthConfig, ShardHealth
from repro.serving.pool import (
    SlotWindow,
    WindowedPool,
    cheapest_capable,
    execute_batch,
    row_payload,
)
from repro.serving.request import ModExpRequest
from repro.serving.scheduler import Batch, BatchKey, batch_key
from repro.serving.wire import (
    BATCH_FRAME,
    NACK_FRAME,
    RESULT_FRAME,
    batch_frame_cheap_mode,
    batch_frame_wants_spans,
    decode_batch_frame,
    decode_nack_frame,
    encode_batch_frame,
    encode_nack_frame,
    decode_result_frame,
    encode_result_frame,
)

__all__ = [
    "placement_key",
    "batch_placement_key",
    "place_batches",
    "ShardMap",
    "ShardPool",
    "RemoteWorkerError",
]

#: Virtual nodes per shard on the consistent-hash ring.  More vnodes
#: smooth how many keys each shard owns at the cost of ring size.  That
#: is key-count balance, not load balance: under Zipf traffic one hot
#: key outweighs all the others, which :func:`place_batches` evens out.
DEFAULT_VNODES = 64


def place_batches(
    costs: Sequence[float],
    sizes: Sequence[int],
    homes: Sequence[int],
    alive: Sequence[bool],
) -> List[int]:
    """Target shard per batch of one dispatch: ring owners, cost-balanced.

    Every batch starts on its ring owner ``homes[i]``.  Batches are then
    visited largest ``costs[i]`` first (ties by position), and one moves
    to the currently least-loaded alive shard (ties to the lowest index)
    only if its cost is strictly less than the load gap between the two.
    Such a move lowers the larger load and leaves the smaller one below
    it, so the maximum shard load never rises.  A batch of one request
    never moves: a key seen once in a window is cold, and moving it costs
    a precompute miss and buys no reuse.
    """
    load = [0.0] * len(alive)
    for cost, home in zip(costs, homes):
        load[home] += cost
    live = [shard for shard, up in enumerate(alive) if up]
    targets = list(homes)
    if len(live) < 2:
        return targets
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        if sizes[i] < 2:
            continue
        src = targets[i]
        dst = min(live, key=lambda shard: load[shard])
        if costs[i] < load[src] - load[dst]:
            load[src] -= costs[i]
            load[dst] += costs[i]
            targets[i] = dst
    return targets


def placement_key(modulus: int, l: int = 0) -> int:
    """Stable 64-bit ring position for one ``(modulus, l)`` key."""
    digest = hashlib.blake2b(
        f"{modulus}|{l}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def batch_placement_key(key: BatchKey) -> int:
    """Ring position of one :func:`~repro.serving.scheduler.batch_key`.

    A ``(modulus, l)`` key sits exactly where :func:`placement_key`
    puts it.  A width key ``w`` (the lock-step lane backends) sits at
    ``placement_key(0, w)``: no modulus is 0, so a width never shares a
    position with a real ``(modulus, l)`` key by construction.
    """
    if isinstance(key, tuple):
        return placement_key(*key)
    return placement_key(0, key)


class ShardMap:
    """Consistent-hash ring mapping placement keys to shard indices.

    Each shard owns :data:`DEFAULT_VNODES` pseudo-random ring positions;
    a key belongs to the first position at or after its own (wrapping).
    :meth:`owner` walks past positions of dead shards, so marking a
    shard dead reassigns exactly its key ranges — every other key keeps
    its home — and marking it alive again returns them.
    """

    def __init__(self, shards: int, *, vnodes: int = DEFAULT_VNODES) -> None:
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if vnodes < 1:
            raise ParameterError(f"vnodes must be >= 1, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        self._alive = [True] * shards
        ring: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                point = int.from_bytes(
                    hashlib.blake2b(
                        f"shard{shard}/vnode{vnode}".encode("ascii"),
                        digest_size=8,
                    ).digest(),
                    "big",
                )
                ring.append((point, shard))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    @property
    def alive(self) -> Tuple[bool, ...]:
        return tuple(self._alive)

    def mark_dead(self, shard: int) -> None:
        self._alive[shard] = False

    def mark_alive(self, shard: int) -> None:
        self._alive[shard] = True

    def home(self, key: int) -> int:
        """The key's home shard, ignoring liveness (stable per key)."""
        start = bisect.bisect_right(self._points, key) % len(self._ring)
        return self._ring[start][1]

    def owner(self, key: int) -> int:
        """The alive shard currently owning ``key``.

        The home shard while it lives; the next alive shard clockwise on
        the ring while it is dead.  Raises :class:`ShardFailure` when
        every shard is dead.
        """
        start = bisect.bisect_right(self._points, key) % len(self._ring)
        for offset in range(len(self._ring)):
            shard = self._ring[(start + offset) % len(self._ring)][1]
            if self._alive[shard]:
                return shard
        raise ShardFailure("every shard in the map is marked dead")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _shard_worker_main(
    conn: Any, shard_index: int, backend_name: str, chaos: Optional[ChaosConfig]
) -> None:
    """Persistent shard worker loop: decode frame → execute batch → reply.

    Runs in a forked child.  The backend is resolved by name **once** —
    its compiled-kernel caches, and the process-wide Montgomery constant
    cache, then live for the worker's whole life; that persistence is the
    entire point of homing batch keys onto shards.  The batch itself runs
    through :func:`~repro.serving.pool.execute_batch`, the executor the
    inline plane calls too.

    Telemetry is opt-in per batch through two frame flags, set from the
    parent's observation session: the metrics flag wraps the batch in a
    fresh local registry whose snapshot travels back in the result
    frame's telemetry blob; the span flag (parent has a tracer) adds one
    span session per request under the blob's ``spans`` key.  The
    engines' hook sites are not free, so an un-instrumented run pays for
    neither.

    An empty frame is the shutdown pill.  A batch frame this worker
    cannot decode is **not** fatal: the pipe preserves message
    boundaries, so the stream is intact — the worker answers with a NACK
    frame naming the batch (when the header was readable) and keeps
    serving; the parent degrades the shard and requeues the batch.  Only
    a closed pipe ends the loop.
    """
    registry_obj = default_registry()
    backend = registry_obj.get(backend_name)
    chaos = chaos if (chaos is not None and chaos.active) else None
    frame_plan = (
        FaultPlan(chaos)
        if chaos is not None and chaos.frame_faults_active
        else None
    )
    cheap_backend = None  # resolved lazily on the first cheap-mode batch
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if not data:  # shutdown pill
            return
        try:
            batch_id, attempt, want_telemetry, requests = decode_batch_frame(data)
        except WireFormatError as exc:
            # Recover the batch id from the fixed header when possible so
            # the parent can requeue exactly that batch.
            nack_id = (
                int.from_bytes(data[1:9], "big")
                if len(data) >= 9 and data[0] == BATCH_FRAME
                else 0
            )
            try:
                conn.send_bytes(encode_nack_frame(nack_id, str(exc)[:512]))
            except (OSError, ValueError, BrokenPipeError):
                return
            continue
        if batch_frame_cheap_mode(data):
            # Brownout lever: execute on the registry's cheapest backend
            # still capable of this batch instead of the primary.
            if cheap_backend is None:
                cheap_backend = cheapest_capable(
                    registry_obj, requests[0], fallback=backend
                )
            exec_backend = cheap_backend
        else:
            exec_backend = backend
        spans = batch_frame_wants_spans(data)
        registry = MetricsRegistry() if want_telemetry else None
        started = time.perf_counter()
        with observe(metrics=registry) if registry is not None else nullcontext():
            # One context per key-table entry, from this worker's warm cache.
            by_key: Dict[Tuple[int, int], MontgomeryContext] = {}
            contexts = []
            for request in requests:
                key = request.coalesce_key
                ctx = by_key.get(key)
                if ctx is None:
                    ctx = by_key[key] = precompute_montgomery_constants(*key)
                contexts.append(ctx)
            rows = execute_batch(
                exec_backend,
                contexts,
                requests,
                chaos=chaos,
                attempt=attempt,
                allow_kill=True,
                spans=spans,
            )
        batch_wall_us = (time.perf_counter() - started) * 1e6
        telemetry = registry.snapshot() if registry is not None else None
        if spans:
            telemetry = telemetry or {}
            telemetry["spans"] = {
                row["id"]: row.pop("span") for row in rows if "span" in row
            }
        frame = encode_result_frame(
            batch_id, rows, batch_wall_us=batch_wall_us, telemetry=telemetry
        )
        if frame_plan is not None:
            decision = frame_plan.decide_frame(batch_id, attempt)
            if decision:
                frame_plan.apply_pre(decision, f"batch-{batch_id}")
                frame = frame_plan.mangle_frame(decision, frame)
        try:
            conn.send_bytes(frame)
        except (OSError, ValueError, BrokenPipeError):
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class RemoteWorkerError(ServingError):
    """An unrecognised exception type crossed the shard wire.

    The original class name travels in the message; known serving-layer
    types are rebuilt as themselves instead.
    """


def _rebuild_error(row: Dict[str, Any]) -> BaseException:
    """Reconstruct a worker-side failure from its wire encoding."""
    name = row.get("error_type", "RuntimeError")
    message = row.get("error", "")
    if name == "FaultDetected":
        return FaultDetected(message, check=row.get("check") or "unknown")
    if name == "DeadlineExceeded":
        return DeadlineExceeded(message, where="worker")
    known: Dict[str, Any] = {
        "QueueFull": QueueFull,
        "WireFormatError": WireFormatError,
        "ParameterError": ParameterError,
        "InjectedFault": InjectedFault,
        "ShardFailure": ShardFailure,
        "TimeoutError": TimeoutError,
    }
    cls = known.get(name)
    if cls is not None:
        return cls(message)
    return RemoteWorkerError(f"{name}: {message}")


class _PendingBatch:
    """One batch frame in flight to a shard."""

    __slots__ = (
        "batch_id",
        "requests",
        "futures",
        "by_id",
        "attempt",
        "requeued",
        "sent_at",
    )

    def __init__(
        self,
        batch_id: int,
        requests: List[ModExpRequest],
        futures: List[Future],
        attempt: int,
    ) -> None:
        self.batch_id = batch_id
        self.requests = requests
        self.futures = futures
        self.by_id = {r.request_id: f for r, f in zip(requests, futures)}
        self.attempt = attempt
        self.requeued = attempt > 0
        self.sent_at = time.monotonic()  # refreshed on every (re)send


class _Shard:
    """Parent-side handle for one worker process + its pipe and reader."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "send_lock",
        "lock",
        "pending",
        "dead",
        "reader",
        "busy_us",
        "cache_hits",
        "cache_misses",
    )

    def __init__(self, index: int, process: Any, conn: Any) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.pending: Dict[int, _PendingBatch] = {}
        self.dead = False
        self.reader: Optional[threading.Thread] = None
        self.busy_us = 0.0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def label(self) -> str:
        return f"shard{self.index}"

    def depth(self) -> int:
        with self.lock:
            return sum(len(p.futures) for p in self.pending.values())


def _mp_context():
    """Fork when the platform has it (fast starts, inherited imports);
    spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class ShardPool(WindowedPool):
    """Front-end dispatcher over N pre-forked, key-homed workers.

    The service's shard plane: :meth:`submit_batch` admits a coalesced
    batch, and inside a :meth:`dispatch_scope` the batches of one
    dispatch travel as one frame per target shard; the rest of the
    surface (``depth``, ``load``, ``abandon``) comes from
    :class:`~repro.serving.pool.WindowedPool`.  One slot of the shared
    :class:`SlotWindow` is reserved per *request*; a batch larger than
    the whole window is admitted when the window is empty so ``wait``
    mode can never deadlock.

    Parameters
    ----------
    shards:
        Worker process count (also exposed as ``workers``).
    backend:
        Backend *name*, resolved from the default registry inside each
        worker — backend objects never cross the process boundary.
    queue_limit:
        Bounded in-flight window in requests (default ``32 × shards``,
        sized for whole batches rather than single tasks).
    chaos:
        Fault plan forwarded to every worker at spawn time.
    vnodes:
        Ring positions per shard for the :class:`ShardMap`.
    health:
        Thresholds for the per-shard
        :class:`~repro.serving.health.ShardHealth` machines (latency
        strikes, corrupt-frame strikes, stuck/drain timeouts).
    """

    kind = "shard"

    def __init__(
        self,
        *,
        shards: int,
        backend: str,
        queue_limit: Optional[int] = None,
        chaos: Optional[ChaosConfig] = None,
        vnodes: int = DEFAULT_VNODES,
        health: Optional[HealthConfig] = None,
    ) -> None:
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        self.workers = shards
        self.backend_name = backend
        # The workers' backend decides how far a batch may reach, so the
        # parent reads its capabilities to place and check batches.
        self._capabilities = default_registry().get(backend).capabilities
        self.chaos = chaos
        self.queue_limit = queue_limit if queue_limit is not None else 32 * shards
        self._window = SlotWindow(self.queue_limit)
        self.map = ShardMap(shards, vnodes=vnodes)
        self.restarts = 0
        self._closed = False
        self._mp = _mp_context()
        self._batch_seq = itertools.count(1)
        # Per thread: the open frames of a dispatch_scope, by target.
        self._staging = threading.local()
        self._started_at = time.monotonic()
        self._lifecycle = threading.Lock()  # serializes respawn/shutdown
        self.health_config = health or HealthConfig()
        # Health machines outlive worker respawns so strike history and
        # transition counters stay per shard *slot*, not per process.
        self._health: List[ShardHealth] = [
            ShardHealth(
                i,
                self.health_config,
                on_transition=(
                    lambda came_from, to, index=i: self._on_health_transition(
                        index, came_from, to
                    )
                ),
            )
            for i in range(shards)
        ]
        self._shards: List[_Shard] = [self._spawn(i) for i in range(shards)]
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="shard-monitor", daemon=True
        )
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Shard:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_shard_worker_main,
            args=(child_conn, index, self.backend_name, self.chaos),
            name=f"repro-shard{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard = _Shard(index, process, parent_conn)
        reader = threading.Thread(
            target=self._reader, args=(shard,), name=f"shard{index}-reader", daemon=True
        )
        shard.reader = reader
        reader.start()
        return shard

    @property
    def shard_pids(self) -> List[int]:
        """Worker PIDs by shard index (drills kill these directly)."""
        return [shard.process.pid for shard in self._shards]

    def health_states(self) -> Dict[int, str]:
        """Current health state per shard index (dashboards, drills)."""
        return {i: h.state for i, h in enumerate(self._health)}

    # ------------------------------------------------------------------
    # Health reactions
    # ------------------------------------------------------------------
    def _on_health_transition(self, index: int, came_from: str, to: str) -> None:
        """React to one shard's health edge (called from event threads).

        ``draining`` is the one edge with a routing side effect: the
        shard's ring ranges rehome immediately (stop admitting) while a
        background thread gives in-flight work its grace period and then
        recycles the worker.  ``dead``/``healthy`` routing flips are
        owned by the death/respawn path itself.
        """
        if to == "draining" and not self._closed:
            self.map.mark_dead(index)
            threading.Thread(
                target=self._drain,
                args=(index,),
                name=f"shard{index}-drain",
                daemon=True,
            ).start()

    def _drain(self, index: int) -> None:
        """Graceful drain: finish in-flight work, then recycle the worker.

        The shard is off the ring, so nothing new arrives; in-flight work
        gets ``drain_timeout_s`` to finish.  A worker that answered
        everything in time gets the shutdown pill and exits cleanly.  A
        worker that still holds work when the grace period lapses is
        *wedged* — the multiplier's cycle count per product is fixed, so
        a slow answer is never an unlucky operand — and is terminated at
        once.  Either way the reader thread's death handler respawns the
        shard, returns its ring ranges, and requeues whatever did not
        finish — the same exactly-once path a crash takes.
        """
        shard = self._shards[index]
        give_up = time.monotonic() + self.health_config.drain_timeout_s
        while time.monotonic() < give_up and not self._closed:
            if shard.depth() == 0:
                break
            time.sleep(0.005)
        # The worker may have crashed outright while we waited; the death
        # path already recycled it and this drain is moot.
        if self._closed or self._health[index].state != "draining":
            return
        if OBS.enabled:
            OBS.count("serving.shard_drains", shard=str(index))
        if shard.depth() == 0:
            try:
                with shard.send_lock:
                    shard.conn.send_bytes(b"")  # pill: exit after current work
            except (OSError, ValueError, BrokenPipeError):
                pass
            shard.process.join(timeout=max(self.health_config.drain_timeout_s, 0.1))
        if shard.process.is_alive():
            shard.process.terminate()
        # EOF now reaches the reader, whose death handler does the rest.

    def _monitor(self) -> None:
        """Stuck-worker detector: pending work older than the timeout.

        A wedged worker holds the pipe open — no EOF, no result frames —
        so it is invisible to both the reader and the latency EWMA.  The
        monitor ages each shard's oldest in-flight batch instead, and
        promotes the shard to draining when it exceeds
        ``stuck_timeout_s``.
        """
        cfg = self.health_config
        interval = max(min(cfg.stuck_timeout_s / 4.0, 0.25), 0.005)
        while not self._closed:
            time.sleep(interval)
            now = time.monotonic()
            for shard in list(self._shards):
                health = self._health[shard.index]
                if health.state not in ("healthy", "degraded"):
                    continue
                with shard.lock:
                    if shard.dead or not shard.pending:
                        continue
                    oldest = min(p.sent_at for p in shard.pending.values())
                if now - oldest > cfg.stuck_timeout_s:
                    if OBS.enabled:
                        OBS.count("serving.stuck_shards", shard=str(shard.index))
                    health.on_stuck()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def place(self, batches: Sequence[Batch]) -> List[Optional[int]]:
        """Target shard per batch of one dispatch (see :func:`place_batches`).

        Hot batches leave a loaded ring owner for the least-loaded alive
        shard; single-request batches stay home.  ``None`` for every
        batch while no shard is alive: :meth:`submit_batch` then waits
        for the ring owner, as it always has.
        """
        alive = self.map.alive
        # One ring position per distinct key: a hot key split into
        # several batches is hashed once.
        positions = {key: batch_placement_key(key) for key in {b.key for b in batches}}
        try:
            homes = [self.map.owner(positions[b.key]) for b in batches]
        except ShardFailure:
            return [None] * len(batches)
        targets = place_batches(
            [b.estimated_cost for b in batches],
            [b.size for b in batches],
            homes,
            alive,
        )
        if OBS.enabled:
            for home, target in zip(homes, targets):
                if target != home:
                    OBS.count(
                        "serving.placement_moves",
                        **{"from": str(home), "to": str(target)},
                    )
        return targets

    @contextmanager
    def dispatch_scope(self) -> Iterator[None]:
        """Collect this thread's batches into one frame per target shard.

        Inside the scope :meth:`submit_batch` admits each batch as it
        always does but stages its requests on the open frame of its
        target instead of sending them.  Each open frame is encoded once
        and sent with one pipe write when the scope closes, and before
        :meth:`wait_for_capacity` blocks, so a wait never stands on slots
        that were reserved but not sent.  Scopes are per thread.
        """
        self._staging.frames = {}
        try:
            yield
        finally:
            self._send_staged()
            self._staging.frames = None

    def wait_for_capacity(
        self, timeout: Optional[float] = None, *, slots: int = 1
    ) -> bool:
        """Send this thread's staged frames, then block until ``slots`` fit."""
        self._send_staged()
        return super().wait_for_capacity(timeout, slots=slots)

    def submit_batch(
        self,
        requests: Sequence[ModExpRequest],
        *,
        contexts: Optional[Sequence[MontgomeryContext]] = None,
        cheap_mode: bool = False,
        shard: Optional[int] = None,
    ) -> List[Future]:
        """Admit one coalesced batch; send it to ``shard``.

        Admission is per batch: one window slot per request, raising
        :class:`~repro.errors.QueueFull` past the bound unless the window
        is empty.  Transport is per shard: inside a
        :meth:`dispatch_scope` the requests join, in submission order, the
        open frame of their target, which the scope sends whole; outside
        one the batch is sent at once as its own frame.  The frame goes to
        ``shard`` (a :meth:`place` target) while that shard is alive,
        else whole to the ring owner of its first request's batch key.  A
        frame may mix batch keys: the worker cuts it by
        :func:`~repro.serving.scheduler.batch_key` before it runs lanes.

        Returns one future per request, in request order.  Each resolves
        to the collector payload ``(value, cycles, wall_us, worker,
        span)`` — ``span`` is the request's worker span session when the
        parent has a tracer, else ``None`` — or raises the reconstructed
        worker-side error.  ``contexts`` is accepted for parity with the
        inline pool and ignored: the worker takes the constants from its
        own warm cache.
        """
        if self._closed:
            raise QueueFull("shard pool is shut down")
        if not requests:
            return []
        self._window.reserve(len(requests), elastic=True)
        futures: List[Future] = [Future() for _ in requests]
        frames = getattr(self._staging, "frames", None)
        if frames is not None:
            staged = frames.setdefault((shard, cheap_mode), ([], []))
            staged[0].extend(requests)
            staged[1].extend(futures)
            return futures
        try:
            self._send_frame(
                list(requests), futures, target=shard, cheap_mode=cheap_mode
            )
        except BaseException:
            self._window.cancel_reservation(len(requests))
            raise
        return futures

    def _send_staged(self) -> None:
        """Send each of this thread's open frames as one frame.

        A frame that cannot be sent (the pool closed, or its shard stayed
        dead past the grace period) fails its futures and frees their
        slots, so the collector answers those requests.
        """
        frames = getattr(self._staging, "frames", None)
        if not frames:
            return
        staged, self._staging.frames = frames, {}
        for (target, cheap_mode), (requests, futures) in staged.items():
            try:
                if self._closed:
                    raise QueueFull("shard pool is shut down")
                self._send_frame(
                    requests, futures, target=target, cheap_mode=cheap_mode
                )
            except Exception as exc:
                for future in futures:
                    try:
                        future.set_exception(exc)
                    except InvalidStateError:
                        pass
                self._window.release_many(futures)

    def _send_frame(
        self,
        requests: List[ModExpRequest],
        futures: List[Future],
        *,
        target: Optional[int] = None,
        cheap_mode: bool = False,
    ) -> None:
        """Encode ``requests`` as one first-attempt frame and send it.

        ``futures[i]`` answers ``requests[i]``; the caller has reserved
        their window slots.
        """
        batch_id = next(self._batch_seq)
        wire_requests = self._uniquify_ids(requests, batch_id)
        pending = _PendingBatch(batch_id, wire_requests, futures, 0)
        frame = encode_batch_frame(
            batch_id,
            wire_requests,
            want_telemetry=OBS.enabled,
            want_spans=OBS.tracer is not None,
            cheap_mode=cheap_mode,
        )
        self._send(pending, frame, target=target)

    @staticmethod
    def _uniquify_ids(
        requests: List[ModExpRequest], batch_id: int
    ) -> List[ModExpRequest]:
        """Ensure every request id in the frame is unique and non-empty.

        Results match futures by id, so empty or duplicated client ids
        (legal on the service API) get a positional suffix on the wire.
        The service assigns unique ids whenever chaos or verification is
        active, so deterministic fault plans never see rewritten ids.
        """
        seen: set = set()
        out: List[ModExpRequest] = []
        for pos, request in enumerate(requests):
            rid = request.request_id
            if not rid or rid in seen:
                rid = f"{rid}#b{batch_id}p{pos}"
                request = replace(request, request_id=rid)
            seen.add(rid)
            out.append(request)
        return out

    def _send(
        self,
        pending: _PendingBatch,
        frame: bytes,
        *,
        target: Optional[int] = None,
    ) -> None:
        """Register ``pending`` with its shard and send.

        Registration happens *before* the write: if the worker dies
        mid-send, the reader's death handler finds the batch in
        ``pending`` and requeues it.  ``target`` pins the batch to an
        explicit shard instead of the ring owner.  A target that is down
        (dead, or off the ring while draining) is never waited for: the
        batch falls back to the ring owner.  A ring owner flagged dead
        (respawn in progress) is retried against the ring until an alive
        owner accepts the batch.  The batch key's ring position is
        hashed only when the ring is asked: a placed batch's target
        already came from it in :meth:`place`.
        """
        key: Optional[int] = None
        give_up = time.monotonic() + 30.0
        while True:
            if target is not None:
                owner = target
            else:
                if key is None:
                    key = batch_placement_key(
                        batch_key(self._capabilities, pending.requests[0])
                    )
                try:
                    owner = self.map.owner(key)
                except ShardFailure:
                    # Every shard momentarily dead (e.g. the only shard is
                    # mid-respawn): wait it out rather than failing the batch.
                    if self._closed or time.monotonic() > give_up:
                        raise
                    time.sleep(0.01)
                    continue
            shard = self._shards[owner]
            with shard.lock:
                if target is not None and (shard.dead or not self.map.alive[target]):
                    target = None
                    continue
                if shard.dead:
                    if self._closed or time.monotonic() > give_up:
                        raise ShardFailure(
                            f"shard {owner} stayed dead past the send grace period"
                        )
                    time.sleep(0.005)
                    continue
                shard.pending[pending.batch_id] = pending
                pending.sent_at = time.monotonic()
            break
        if OBS.enabled:
            OBS.count("serving.shard_batches", shard=str(shard.index))
            OBS.count(
                "serving.shard_requests", len(pending.requests), shard=str(shard.index)
            )
            OBS.count("serving.frame_bytes", len(frame), direction="out")
            OBS.gauge(
                "serving.shard_queue_depth", shard.depth(), shard=str(shard.index)
            )
        try:
            with shard.send_lock:
                shard.conn.send_bytes(frame)
        except (OSError, ValueError, BrokenPipeError):
            # The worker died between registration and the write; the
            # reader thread's death handler requeues this batch.
            pass

    # ------------------------------------------------------------------
    # Collection (reader threads)
    # ------------------------------------------------------------------
    def _reader(self, shard: _Shard) -> None:
        while True:
            try:
                data = shard.conn.recv_bytes()
            except (EOFError, OSError):
                break
            if data[:1] and data[0] == NACK_FRAME:
                # The worker could not decode a batch frame we sent.
                try:
                    nack_id, message = decode_nack_frame(data)
                except WireFormatError as exc:
                    self._frame_corruption(shard, None, f"undecodable nack: {exc}")
                    continue
                self._frame_corruption(
                    shard, nack_id or None, f"worker nack: {message}"
                )
                continue
            try:
                batch_id, batch_wall_us, rows, telemetry = decode_result_frame(data)
            except WireFormatError as exc:
                # A corrupt result frame is shard *degradation*, not death:
                # the pipe preserves message boundaries, so the stream
                # stays parseable.  Recover the batch id from the fixed
                # header when the corruption landed past it.
                peeked = (
                    int.from_bytes(data[1:9], "big")
                    if len(data) >= 9 and data[0] == RESULT_FRAME
                    else None
                )
                self._frame_corruption(shard, peeked, str(exc))
                continue
            self._health[shard.index].on_batch_done(batch_wall_us)
            with shard.lock:
                pending = shard.pending.pop(batch_id, None)
            if pending is None:
                continue  # batch abandoned wholesale (shutdown race)
            self._account_batch(shard, pending, batch_wall_us, telemetry, len(data))
            spans = telemetry.get("spans", {}) if telemetry is not None else {}
            for row in rows:
                future = pending.by_id.get(row.get("id", ""))
                if future is None:
                    continue
                if row["id"] in spans:
                    row["span"] = spans[row["id"]]
                self._resolve(shard, future, row)
            # Any future the worker failed to answer (should not happen)
            # still must not leak its slot.
            for future in pending.futures:
                if not future.done():
                    try:
                        future.set_exception(
                            RemoteWorkerError(
                                f"shard {shard.index} returned no result for request"
                            )
                        )
                    except InvalidStateError:
                        pass
            self._window.release_many(pending.futures)
        self._handle_death(shard)

    def _frame_corruption(
        self, shard: _Shard, batch_id: Optional[int], reason: str
    ) -> None:
        """One malformed frame crossed this shard's wire (either way).

        Degrade — never kill: the worker process and its warm caches are
        fine; only one message was damaged.  When the batch is
        identifiable it is requeued exactly once (the same budget a
        death-requeue spends); a second corruption fails its futures
        over to the service's retry ladder.  An unidentifiable batch is
        left pending for the stuck monitor to recover via draining.
        """
        if OBS.enabled:
            OBS.count("serving.corrupt_frames", shard=str(shard.index))
        self._health[shard.index].on_corrupt_frame()
        if batch_id is None:
            return
        with shard.lock:
            pending = shard.pending.pop(batch_id, None)
        if pending is None:
            return
        if pending.requeued:
            self._fail_pending(
                shard,
                [pending],
                f"batch {batch_id} lost twice to frame corruption: {reason}",
            )
            return
        if OBS.enabled:
            OBS.count(
                "serving.requeued", len(pending.requests), shard=str(shard.index)
            )
        self._requeue(pending)

    def _resolve(self, shard: _Shard, future: Future, row: Dict[str, Any]) -> None:
        try:
            if "value" in row:
                future.set_result(row_payload(row, shard.label))
            else:
                future.set_exception(_rebuild_error(row))
        except InvalidStateError:
            pass  # abandoned (deadline) while the worker was computing

    def _account_batch(
        self,
        shard: _Shard,
        pending: _PendingBatch,
        batch_wall_us: float,
        telemetry: Optional[Dict[str, Any]],
        frame_bytes: int,
    ) -> None:
        """Fold one result frame's accounting into the parent registry."""
        shard.busy_us += batch_wall_us
        if telemetry is not None:
            for row in telemetry.get("counters", ()):
                if row["name"] == "montgomery.precompute_cache_hits":
                    shard.cache_hits += row["value"]
                elif row["name"] == "montgomery.precompute":
                    shard.cache_misses += row["value"]
        if not OBS.enabled:
            return
        OBS.count("serving.frame_bytes", frame_bytes, direction="in")
        OBS.record(
            "serving.shard_batch_wall_us", batch_wall_us, shard=str(shard.index)
        )
        if OBS.metrics is not None and telemetry is not None:
            OBS.metrics.merge(
                telemetry, worker=shard.label, shard=str(shard.index)
            )
        elapsed_us = max((time.monotonic() - self._started_at) * 1e6, 1.0)
        OBS.gauge(
            "serving.shard_busy_fraction",
            min(shard.busy_us / elapsed_us, 1.0),
            shard=str(shard.index),
        )
        OBS.gauge(
            "serving.shard_queue_depth", shard.depth(), shard=str(shard.index)
        )
        lookups = shard.cache_hits + shard.cache_misses
        if lookups:
            OBS.gauge(
                "serving.shard_cache_hit_rate",
                shard.cache_hits / lookups,
                shard=str(shard.index),
            )

    # ------------------------------------------------------------------
    # Death, respawn, requeue
    # ------------------------------------------------------------------
    def _handle_death(self, shard: _Shard) -> None:
        """Reader-thread epilogue: the shard's pipe reached EOF.

        On a live pool this is a worker death: mark the shard dead (its
        key ranges reassign to ring neighbours), respawn it, mark it
        alive (the ranges return home), then requeue the dead worker's
        batches — exactly once each, with the attempt index bumped so
        deterministic chaos kills do not loop.  A batch already requeued
        once fails over to :class:`ShardFailure`.  On a closed pool the
        remaining futures just fail.
        """
        with shard.lock:
            shard.dead = True
            drained = list(shard.pending.values())
            shard.pending.clear()
        if self._closed:
            self._fail_pending(shard, drained, "shard pool shut down")
            return
        self.map.mark_dead(shard.index)
        self._health[shard.index].on_death()
        with self._lifecycle:
            if self._closed:
                self._fail_pending(shard, drained, "shard pool shut down")
                return
            self.restarts += 1
            if OBS.enabled:
                OBS.count("serving.worker_restarts")
                OBS.count("serving.shard_deaths", shard=str(shard.index))
            try:
                shard.conn.close()
            except OSError:
                pass
            if shard.process.is_alive():
                shard.process.terminate()
            shard.process.join(timeout=5)
            self._shards[shard.index] = self._spawn(shard.index)
        self._health[shard.index].on_respawn()
        self.map.mark_alive(shard.index)
        for pending in drained:
            if pending.requeued:
                self._fail_pending(
                    shard,
                    [pending],
                    f"shard {shard.index} died twice on batch {pending.batch_id}",
                )
                continue
            if OBS.enabled:
                OBS.count(
                    "serving.requeued", len(pending.requests), shard=str(shard.index)
                )
            self._requeue(pending)

    def _requeue(self, pending: _PendingBatch) -> None:
        """Resend a dead shard's batch — same futures, bumped attempt."""
        pending.attempt += 1
        pending.requeued = True
        frame = encode_batch_frame(
            pending.batch_id,
            pending.requests,
            attempt=pending.attempt,
            want_telemetry=OBS.enabled,
            want_spans=OBS.tracer is not None,
        )
        try:
            self._send(pending, frame)
        except BaseException as exc:  # e.g. every shard dead
            self._fail_pending(None, [pending], str(exc))

    def _fail_pending(
        self, shard: Optional[_Shard], batches: List[_PendingBatch], reason: str
    ) -> None:
        where = f"shard {shard.index}" if shard is not None else "shard pool"
        for pending in batches:
            for future in pending.futures:
                try:
                    future.set_exception(
                        ShardFailure(f"{where}: {reason}")
                    )
                except InvalidStateError:
                    pass
            self._window.release_many(pending.futures)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, *, wait: bool = True, cancel_pending: bool = False) -> None:
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            shards = list(self._shards)
        for shard in shards:
            try:
                with shard.send_lock:
                    shard.conn.send_bytes(b"")  # shutdown pill
            except (OSError, ValueError, BrokenPipeError):
                pass
        for shard in shards:
            shard.process.join(timeout=5 if wait else 0.1)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=1)
            try:
                shard.conn.close()
            except OSError:
                pass
        for shard in shards:
            if shard.reader is not None and wait:
                shard.reader.join(timeout=5)
