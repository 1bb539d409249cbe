"""The benchmark's three closed-loop workloads and the loop that drives them.

Every knob of the load is a constant here: shard count, window size,
keyring, traffic shape and verification policy.  None is derived from
the core count or from measured capacity, so a parent commit and a
change always run the same load for the same seed.  The seed chooses
only the request trace (which key each request hits, its base and its
exponent); the keyring of each workload is fixed, because with few keys
the consistent-hash placement of the hot keys decides how evenly the
shards are loaded, and that must not change from seed to seed.

The traffic is synthetic: the repository holds no production trace.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.hdl.compiled import clear_kernel_cache
from repro.montgomery.params import montgomery_cache_clear
from repro.robustness.verify import VerifyPolicy
from repro.serving import (
    ModExpRequest,
    ModExpService,
    WorkloadConfig,
    generate_workload,
)
from repro.serving.wire import request_to_json

from measure import mmm_count
from probe import HostProbe

#: Seed of every workload's fixed keyring (the trace seed is separate).
KEYRING_SEED = "perfbench-keyring"

#: Seconds of calls between two host-speed probes.
PROBE_EVERY_S = 0.5


@dataclass(frozen=True)
class Workload:
    """One closed-loop client driving one service configuration."""

    name: str
    why: str
    backend: str
    plane: str  # ModExpService worker_kind: "shard" or "inline"
    workers: int
    window: int  # requests per call; also the service's max_batch
    traffic: WorkloadConfig  # keyring and request shape
    trace_requests: int  # generated once per run, then cycled
    json_lines: bool  # drive serve() with JSON lines instead of process()
    verify: Optional[VerifyPolicy] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="keyring",
            why=(
                "few hot big keys on 2 shards: the bit-serial Montgomery loop "
                "does almost all the work, per-batch plane overhead is small"
            ),
            backend="integer",
            plane="shard",
            workers=2,
            window=64,
            traffic=WorkloadConfig(
                keys=8, bits=(192, 256), zipf_s=1.2, exponent_bits=(64,)
            ),
            trace_requests=8192,
            json_lines=False,
        ),
        Workload(
            name="small-keys",
            why=(
                "JSON-lines serve() on 2 shards with 4096 tiny keys: little "
                "batching and a cold key tail expose wire, scheduler and shard "
                "overhead"
            ),
            backend="integer",
            plane="shard",
            workers=2,
            window=64,
            traffic=WorkloadConfig(
                keys=4096,
                bits=(16, 24, 32),
                zipf_s=1.1,
                exponent_bits=tuple(range(8, 17)),
                interactive_share=0.25,
            ),
            # Generating a request costs ~120 us here (a Zipf draw over
            # 4096 weights), so the trace is cycled rather than grown.
            trace_requests=16384,
            json_lines=True,
            verify=VerifyPolicy(mode="sampled", sample_rate=0.1, seed=0),
        ),
        Workload(
            name="rtl-lanes",
            why=(
                "gate-level rtl backend inline, exponent 65537 on 4 keys: "
                "same-modulus groups fill the 64-lane compiled kernels; no "
                "big-int loop, no shard plane"
            ),
            backend="rtl",
            plane="inline",
            workers=1,
            window=256,
            traffic=WorkloadConfig(keys=4, bits=(32, 64), zipf_s=1.1, f4_share=1.0),
            trace_requests=8192,
            json_lines=False,
        ),
    )
}


def keyring(workload: Workload) -> List[int]:
    """The workload's fixed keyring, rank 0 the most popular key."""
    config = replace(workload.traffic, requests=0)
    return generate_workload(config, seed=KEYRING_SEED).keyring


def request_trace(workload: Workload, seed: int) -> List[ModExpRequest]:
    """The seeded request trace, mapped onto the fixed keyring by key rank.

    The generator draws keys by Zipf rank from a keyring of its own
    seed; each request keeps its rank, exponent and priority and moves to
    the fixed key of that rank, with its base redrawn into ``[1, N)``.
    (Narrow generated keyrings can repeat a modulus; such a request
    takes the lower rank.)
    """
    config = replace(workload.traffic, requests=workload.trace_requests)
    generated = generate_workload(config, seed=f"{workload.name}/{seed}")
    rank: Dict[int, int] = {}
    for k, n in enumerate(generated.keyring):
        rank.setdefault(n, k)
    ring = keyring(workload)
    trace = []
    for request in generated.requests:
        n = ring[rank[request.modulus]]
        trace.append(replace(request, modulus=n, base=1 + request.base % (n - 1)))
    return trace


def windows(workload: Workload, trace: Sequence[ModExpRequest]) -> Iterator[list]:
    """Endless calls' worth of requests, cycling through ``trace``.

    Request ids gain a ``.p<pass>`` suffix after the first pass, so every
    id in a run is unique.
    """
    size, start, passes = workload.window, 0, 0
    while True:
        window = []
        for _ in range(size):
            request = trace[start]
            if passes:
                request = replace(request, request_id=f"{request.request_id}.p{passes}")
            window.append(request)
            start += 1
            if start == len(trace):
                start, passes = 0, passes + 1
        yield window


def start_service(workload: Workload) -> Tuple[ModExpService, float]:
    """Build the service from cold caches and warm it with one request per key.

    Returns ``(service, setup_seconds)``; the time covers shard fork,
    Montgomery constant precompute and kernel compile.  The warm-up
    results are checked against ``pow()``.
    """
    montgomery_cache_clear()
    clear_kernel_cache()
    warm = [
        ModExpRequest(base=2, exponent=3, modulus=n, request_id=f"warm-{k}")
        for k, n in enumerate(dict.fromkeys(keyring(workload)))
    ]
    started = time.perf_counter()
    service = ModExpService(
        backend=workload.backend,
        worker_kind=workload.plane,
        workers=workload.workers,
        max_batch=workload.window,
        verify=workload.verify,
    )
    try:
        results = service.process(warm)
        elapsed = time.perf_counter() - started
        for request, result in zip(warm, results):
            if not result.ok or result.value != request.expected():
                raise AccountingError(f"warm-up request {request.request_id} failed: {result}")
    except BaseException:
        service.close()
        raise
    return service, elapsed


@dataclass
class Outcome:
    """One request's result as the client saw it."""

    request: ModExpRequest
    ok: bool
    value: Optional[int]
    error_type: str
    cycles: Optional[int]
    wall_us: Optional[float]


OUTCOME_CLASSES = ("ok", "failed", "shed", "expired")


@dataclass
class LoopRun:
    """What a closed loop sent and got back, and how long each call took.

    Results are checked and folded in as each call returns, so the client
    keeps no per-request state that would count toward the peak RSS.
    """

    latencies: List[float] = field(default_factory=list)  # seconds per call
    counts: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(("sent",) + OUTCOME_CLASSES, 0)
    )
    cycles: int = 0  # summed over ok results
    exec_s: float = 0.0  # summed ModExpResult.wall_us of ok results
    mmms: int = 0  # Montgomery products of ok results

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def add(self, outcome: Outcome) -> None:
        """Classify one result; an ok value must equal ``pow()``."""
        if outcome.ok:
            expected = outcome.request.expected()
            if outcome.value != expected:
                raise AccountingError(
                    f"request {outcome.request.request_id}: got {outcome.value}, "
                    f"pow() gives {expected}"
                )
            self.counts["ok"] += 1
            self.cycles += outcome.cycles or 0
            self.exec_s += (outcome.wall_us or 0.0) / 1e6
            self.mmms += mmm_count(outcome.request.exponent)
        elif outcome.error_type == "RequestShed":
            self.counts["shed"] += 1
        elif outcome.error_type == "DeadlineExceeded":
            self.counts["expired"] += 1
        else:
            self.counts["failed"] += 1

    def checked_counts(self) -> Dict[str, int]:
        """The outcome counts, once they are shown to add up to the requests sent."""
        if sum(self.counts[c] for c in OUTCOME_CLASSES) != self.counts["sent"]:
            raise AccountingError(f"outcome classes do not add up: {self.counts}")
        return dict(self.counts)


def _caller(workload: Workload, service: ModExpService) -> Callable[[list], Any]:
    if not workload.json_lines:
        return service.process

    def serve(lines: List[str]) -> str:
        out = io.StringIO()
        # Closed loop: the client waits for capacity rather than being
        # refused while the previous window's slots drain.
        service.serve(lines, out, on_full="wait")
        return out.getvalue()

    return serve


def _outcomes(workload: Workload, window: list, reply: Any) -> List[Outcome]:
    """Pair each request of a window with exactly one result."""
    if workload.json_lines:
        rows = [json.loads(line) for line in reply.splitlines()]
        results = [
            (
                row["id"],
                row["ok"],
                int(row["value"]) if row["ok"] else None,
                row.get("error_type", ""),
                row.get("cycles"),
                row.get("wall_us"),
            )
            for row in rows
        ]
    else:
        results = [
            (r.request_id, r.ok, r.value, r.error_type, r.cycles, r.wall_us)
            for r in reply
        ]
    by_id: Dict[str, tuple] = {}
    for result in results:
        if result[0] in by_id:
            raise AccountingError(f"two results for request {result[0]!r}")
        by_id[result[0]] = result
    if len(by_id) != len(window) or set(by_id) != {r.request_id for r in window}:
        raise AccountingError(
            f"{len(window)} requests sent, results for {len(by_id)} ids"
        )
    return [Outcome(r, *by_id[r.request_id][1:]) for r in window]


class AccountingError(RuntimeError):
    """A request got no result, two results, or a wrong value."""


def closed_loop(
    workload: Workload,
    service: ModExpService,
    calls: Iterator[list],
    *,
    seconds: float = 0.0,
    min_calls: int = 0,
    exact_calls: Optional[int] = None,
    probe: Optional[HostProbe] = None,
) -> LoopRun:
    """One client: send a window, wait for its results, repeat.

    Runs until the calls add up to ``seconds`` and number at least
    ``min_calls``, or for exactly ``exact_calls`` calls.  Only the calls
    are timed; preparing a window and checking its results are not, nor
    is sampling ``probe``, which happens before the first call and then
    once per :data:`PROBE_EVERY_S` of call time.  Raises
    :class:`AccountingError` on a wrong value or a lost result.
    """
    call = _caller(workload, service)
    run = LoopRun()
    probed_at = -PROBE_EVERY_S

    def more() -> bool:
        if exact_calls is not None:
            return len(run.latencies) < exact_calls
        return run.wall_s < seconds or len(run.latencies) < min_calls

    while more():
        if probe is not None and run.wall_s - probed_at >= PROBE_EVERY_S:
            probe.sample()
            probed_at = run.wall_s
        window = next(calls)
        run.counts["sent"] += len(window)
        payload = (
            [request_to_json(r) + "\n" for r in window]
            if workload.json_lines
            else window
        )
        started = time.perf_counter()
        reply = call(payload)
        run.latencies.append(time.perf_counter() - started)
        for outcome in _outcomes(workload, window, reply):
            run.add(outcome)
    return run
