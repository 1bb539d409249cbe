"""Per-layer attribution for the traced run, recorded from outside ``src/``.

The program has no spans at its layer boundaries yet, so the traced run
wraps the public functions each layer exposes, at the names the service
and the shard pool call them by, and restores them afterwards.  On the
client thread (the one calling ``process``/``serve``) each wrapper adds
its *self* time (its duration minus the wrapped calls nested inside it)
to one row of the wall-time table, so the rows never overlap and
``service.unattributed`` (the call time no wrapper covers) is what is
left over.

Time the client spends blocked on shard futures (``service.await``) is
split three ways in proportion to what the batches it waited on spent:
executing on the shard (the result frame's batch wall time), decoding the
result frame in the parent's reader thread, and the rest of each round
trip (pipe transit and queueing behind other batches).  On the inline
plane the backend runs on the client thread and is timed directly.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.hdl.compiled as hdl_compiled
import repro.serving.scheduler as scheduler
import repro.serving.service as service_module
import repro.serving.shard as shard_module
from repro.robustness.verify import ResultVerifier
from repro.serving.shard import ShardPool

#: Rows of the wall-time table, in table order.
ROWS = (
    "wire.json_parse",
    "wire.json_emit",
    "scheduler.coalesce",
    "params.precompute",
    "shard.submit",
    "wire.frame_encode",
    "verify.check",
    "backends.exec",
    "compiled.compile",
    "wire.frame_decode",
    "shard.transit_queue",
    "service.await",
    "service.unattributed",
)

#: (owner, attribute, row): the entry points the timed pass wraps, at the
#: names the service and the shard pool call them by.
ENTRY_POINTS = (
    (service_module, "parse_request_line", "wire.json_parse"),
    (service_module, "result_to_json", "wire.json_emit"),
    (service_module, "coalesce", "scheduler.coalesce"),
    (scheduler, "precompute_montgomery_constants", "params.precompute"),
    (ShardPool, "submit_batch", "shard.submit"),
    (shard_module, "encode_batch_frame", "wire.frame_encode"),
    (ResultVerifier, "check", "verify.check"),
    (Future, "result", "service.await"),
    (hdl_compiled, "compile_kernel", "compiled.compile"),
)


class ShardBatch:
    """One batch frame's trip: encoded, answered, decoded."""

    __slots__ = (
        "requests", "frame_bytes", "sent_at", "roundtrip_s", "exec_s", "decode_s", "shard"
    )

    def __init__(self, requests: int, frame_bytes: int, sent_at: float) -> None:
        self.requests = requests
        self.frame_bytes = frame_bytes
        self.sent_at = sent_at
        self.roundtrip_s: Optional[float] = None  # encode until the answer arrives
        self.exec_s = 0.0
        self.decode_s = 0.0
        self.shard = ""


class LayerClock:
    """Self time per layer on the client thread, plus per-batch shard trips."""

    def __init__(self) -> None:
        self._client = threading.get_ident()
        self._stack: List[List[float]] = []  # [nested time] per open call
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (the timed loop starts)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.batches: Dict[int, ShardBatch] = {}
        self.coalesced_requests = 0
        self.coalesced_batches = 0

    # ------------------------------------------------------------------
    def timed(self, row: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to add its self time on the client thread to ``row``.

        ``after(result, args)`` runs outside the timed span.
        """
        clock = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != clock._client:
                return fn(*args, **kwargs)
            nested = [0.0]
            clock._stack.append(nested)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                clock._stack.pop()
                clock.self_s[row] += elapsed - nested[0]
                clock.calls[row] += 1
                if clock._stack:
                    clock._stack[-1][0] += elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _coalesced(self, batches: list, args: tuple) -> None:
        self.coalesced_batches += len(batches)
        self.coalesced_requests += sum(batch.size for batch in batches)

    def _encoded(self, frame: bytes, args: tuple) -> None:
        batch_id, requests = args[0], args[1]
        self.batches[batch_id] = ShardBatch(len(requests), len(frame), time.perf_counter())

    def _decode(self, fn: Callable) -> Callable:
        """Reader-thread wrapper: close the batch's round trip."""
        clock = self

        def wrapper(payload: bytes) -> Any:
            started = time.perf_counter()
            decoded = fn(payload)
            done = time.perf_counter()
            batch = clock.batches.get(decoded[0])
            if batch is not None:
                batch.roundtrip_s = started - batch.sent_at
                batch.exec_s = decoded[1] / 1e6
                batch.decode_s = done - started
                batch.shard = threading.current_thread().name.split("-")[0]
            return decoded

        return wrapper

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["LayerClock"]:
        """Wrap the layers' entry points for the duration of the block."""
        after = {"scheduler.coalesce": self._coalesced, "wire.frame_encode": self._encoded}
        originals = [(owner, name, vars(owner)[name]) for owner, name, _ in ENTRY_POINTS]
        originals.append((shard_module, "decode_result_frame", shard_module.decode_result_frame))
        try:
            for owner, name, row in ENTRY_POINTS:
                setattr(owner, name, self.timed(row, vars(owner)[name], after.get(row)))
            shard_module.decode_result_frame = self._decode(shard_module.decode_result_frame)
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    def time_backend(self, backend: Any) -> None:
        """Time ``backend``'s executions (instance attributes, dropped with it)."""
        backend.execute = self.timed("backends.exec", backend.execute)
        backend.execute_many = self.timed("backends.exec", backend.execute_many)

    # ------------------------------------------------------------------
    def answered(self) -> List[ShardBatch]:
        """Batches whose result frame came back."""
        return [b for b in self.batches.values() if b.roundtrip_s is not None]

    def table(self, wall_s: float) -> Dict[str, float]:
        """Seconds per row of ``ROWS``; the rows sum to ``wall_s``."""
        rows = {row: self.self_s.get(row, 0.0) for row in ROWS}
        trips = self.answered()
        waited = sum(b.roundtrip_s + b.decode_s for b in trips)
        if waited > 0:
            wait = rows["service.await"]
            executing = sum(b.exec_s for b in trips)
            decoding = sum(b.decode_s for b in trips)
            rows["backends.exec"] += wait * executing / waited
            rows["wire.frame_decode"] += wait * decoding / waited
            rows["shard.transit_queue"] += wait * (waited - executing - decoding) / waited
            rows["service.await"] = 0.0
        rows["service.unattributed"] = wall_s - sum(
            rows[row] for row in ROWS if row != "service.unattributed"
        )
        return rows
