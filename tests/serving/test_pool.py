"""Pools and the shared batch executor: bounded window, rejection, both planes."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from repro.errors import DeadlineExceeded, ParameterError, QueueFull
from repro.montgomery.params import precompute_montgomery_constants
from repro.observability import MetricsRegistry, observe
from repro.serving import ModExpRequest, ModExpService
from repro.serving.backends import BackendResult, IntegerBackend, default_registry
from repro.serving.pool import InlinePool, SlotWindow, execute_batch
from repro.serving.shard import ShardPool

N = 0xC5AF  # 16-bit odd modulus


def _request(i=0, exponent=65537, **kw):
    return ModExpRequest(3 + i, exponent, N, request_id=f"p{i}", **kw)


def _context():
    return precompute_montgomery_constants(N)


class _Probe(IntegerBackend):
    """Integer backend that records the executing thread, or raises."""

    def __init__(self, fail: bool = False) -> None:
        self.fail = fail
        self.threads = []

    def execute(self, ctx, request):
        self.threads.append(threading.get_ident())
        if self.fail:
            raise ValueError("probe failure")
        return BackendResult(request.expected(), 1)


def _inline(backend=None, **kw):
    return InlinePool(
        backend or IntegerBackend(), registry=default_registry(), **kw
    )


class TestBasics:
    @pytest.mark.parametrize("kind", ["inline", "shard"])
    def test_submit_returns_result(self, kind):
        pool = _inline() if kind == "inline" else ShardPool(shards=2, backend="integer")
        with pool:
            (future,) = pool.submit_batch([_request()], contexts=[_context()])
            assert future.result(timeout=30)[0] == pow(3, 65537, N)

    def test_inline_runs_on_caller_thread(self):
        backend = _Probe()
        with _inline(backend) as pool:
            (future,) = pool.submit_batch([_request()], contexts=[_context()])
        assert future.done()  # resolved before submit_batch returned
        assert backend.threads == [threading.get_ident()]

    def test_exceptions_surface_via_future(self):
        with _inline(_Probe(fail=True)) as pool:
            (future,) = pool.submit_batch([_request()], contexts=[_context()])
        # The inline plane hands back the backend's own exception object.
        assert isinstance(future.exception(), ValueError)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError):
            SlotWindow(0)
        with pytest.raises(ParameterError):
            _inline(queue_limit=0)
        with pytest.raises(ParameterError):
            ModExpService(worker_kind="fiber")
        with pytest.raises(ParameterError):
            ModExpService(workers=0)


class TestBackpressure:
    def test_saturated_queue_rejects_not_deadlocks(self):
        """The acceptance regression: a full bounded window raises
        QueueFull immediately; it never blocks the submitter."""
        window = SlotWindow(2)
        window.reserve()
        window.reserve()
        futures = [Future(), Future()]
        assert window.depth == 2
        t0 = time.monotonic()
        with pytest.raises(QueueFull, match="2/2"):
            window.reserve()
        # Rejection must be immediate (no hidden blocking path).
        assert time.monotonic() - t0 < 1.0
        threading.Timer(0.05, lambda: [window.release(f) for f in futures]).start()
        assert window.wait(timeout=30)
        window.reserve()
        assert window.depth == 1

    def test_queue_depth_gauge_tracks_inflight(self):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            window = SlotWindow(4)
            window.reserve(3)
            assert registry.gauge("serving.queue_depth").value() == 3
            futures = [Future() for _ in range(3)]
            for f in futures:
                assert window.release(f)
                assert not window.release(f)  # exactly once per future
            assert window.depth == 0
        assert registry.gauge("serving.queue_depth").value() == 0

    def test_submit_after_shutdown_rejects(self):
        pool = _inline()
        pool.shutdown()
        with pytest.raises(QueueFull, match="shut down"):
            pool.submit_batch([_request()], contexts=[_context()])

    def test_default_queue_limit_scales_with_workers(self):
        assert _inline().queue_limit == 4
        with ShardPool(shards=3, backend="integer") as pool:
            assert pool.queue_limit == 96


class TestExecuteBatch:
    def test_rows_follow_request_order_across_lane_groups(self):
        gate = default_registry().get("gate")
        n = 197
        requests = [
            ModExpRequest(2 + i, 17 if i % 2 else 19, n, request_id=f"g{i}")
            for i in range(6)
        ]
        ctx = precompute_montgomery_constants(n)
        rows = execute_batch(gate, [ctx] * len(requests), requests)
        assert [row["id"] for row in rows] == [r.request_id for r in requests]
        assert [row["value"] for row in rows] == [r.expected() for r in requests]

    def test_expired_request_gets_a_deadline_row(self):
        expired = _request(1, expires_at=time.monotonic() - 1.0)
        rows = execute_batch(
            IntegerBackend(), [_context()] * 2, [_request(), expired]
        )
        assert rows[0]["value"] == pow(3, 65537, N)
        assert rows[1]["error_type"] == "DeadlineExceeded"
        assert isinstance(rows[1]["exc"], DeadlineExceeded)
