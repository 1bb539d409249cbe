"""End-to-end service semantics: correctness, timeouts, backpressure, metrics."""

from __future__ import annotations

import io
import random
import time

import pytest

from repro.errors import ParameterError
from repro.montgomery.params import montgomery_cache_clear
from repro.observability import MetricsRegistry, observe
from repro.robustness import ChaosConfig
from repro.serving.backends import (
    BackendCapabilities,
    BackendRegistry,
    BackendResult,
    ModExpBackend,
)
from repro.serving.request import ModExpRequest
from repro.serving.service import ModExpService
from repro.utils.rng import random_odd_modulus


def _workload(count: int, distinct_moduli: int, bits: int = 48, seed: int = 0):
    rng = random.Random(seed)
    moduli = [random_odd_modulus(bits, rng) for _ in range(distinct_moduli)]
    return [
        ModExpRequest(
            rng.randrange(moduli[i % distinct_moduli]),
            rng.randrange(1, moduli[i % distinct_moduli]),
            moduli[i % distinct_moduli],
            request_id=f"r{i}",
        )
        for i in range(count)
    ]


class SleepBackend(ModExpBackend):
    """Test backend: configurable latency, correct answers (inline only:
    shard workers resolve backends by name from the default registry)."""

    name = "sleepy"
    capabilities = BackendCapabilities(description="test-only slow backend")

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def model_cycles(self, request):
        return 1.0

    def execute(self, ctx, request):
        time.sleep(self.delay)
        return BackendResult(request.expected(), 1)


def _sleepy_registry(delay: float) -> BackendRegistry:
    registry = BackendRegistry()
    registry.register(SleepBackend(delay))
    return registry


def _slow_shards(latency_s: float, **kw) -> ModExpService:
    """A shard-plane service whose every execution sleeps ``latency_s``."""
    return ModExpService(
        backend="integer",
        worker_kind="shard",
        chaos=ChaosConfig(seed=1, latency_rate=1.0, latency_s=latency_s),
        **kw,
    )


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["inline", "shard"])
    def test_results_match_pow_in_input_order(self, kind):
        requests = _workload(12, 3)
        with ModExpService(backend="integer", workers=2, worker_kind=kind) as svc:
            results = svc.process(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.ok, result
            assert result.request_id == request.request_id
            assert result.value == request.expected()
            assert result.backend == "integer"
            assert result.cycles and result.cycles > 0

    def test_duplicate_request_objects_allowed(self):
        request = _workload(1, 1)[0]
        with ModExpService(worker_kind="inline") as svc:
            results = svc.process([request, request, request])
        assert all(r.ok and r.value == request.expected() for r in results)

    def test_unsupported_request_fails_without_dispatch(self):
        requests = _workload(2, 2, bits=20)
        with ModExpService(backend="rtl", workers=1, worker_kind="inline") as svc:
            wide = ModExpRequest(2, 3, (1 << 96) + 61)  # over rtl's 64-bit cap
            results = svc.process([requests[0], wide, requests[1]])
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].error_type == "ParameterError"

    def test_batch_indices_reported(self):
        requests = _workload(8, 2)
        with ModExpService(worker_kind="inline") as svc:
            results = svc.process(requests)
        assert {r.batch_index for r in results} == {0, 1}

    def test_process_pool_requires_registered_name(self):
        """The shard plane is the service's process pool: its workers
        resolve the backend by name from the default registry, so a
        custom registry's backend is refused there (and served inline)."""
        registry = _sleepy_registry(0.0)
        with pytest.raises(ParameterError, match="default registry"):
            ModExpService(backend="sleepy", registry=registry, workers=2)
        with ModExpService(
            backend="sleepy", registry=registry, worker_kind="inline"
        ) as svc:
            assert svc.pool.kind == "inline"

    @pytest.mark.parametrize("kind", ["auto", "thread", "process", "fiber"])
    def test_only_the_two_planes_are_accepted(self, kind):
        with pytest.raises(ParameterError, match="unknown worker kind"):
            ModExpService(worker_kind=kind)

    def test_default_plane_follows_worker_count(self):
        with ModExpService(workers=1) as svc:
            assert svc.pool.kind == "inline"
        with ModExpService(workers=2) as svc:
            assert svc.pool.kind == "shard" and svc.pool.workers == 2


class TestTimeouts:
    def test_per_request_timeout_surfaces_timeout_error(self):
        requests = _workload(2, 1, bits=16, seed=3)
        slow = ModExpRequest(
            requests[0].base,
            requests[0].exponent,
            requests[0].modulus,
            request_id="slow",
            timeout=0.05,
        )
        registry = MetricsRegistry()
        with observe(metrics=registry):
            svc = _slow_shards(0.4, workers=1)
            try:
                results = svc.process([slow])
            finally:
                svc.close(wait=False)
        assert not results[0].ok
        assert results[0].error_type == "TimeoutError"
        assert (
            registry.counter("serving.requests").value(
                status="timeout", backend="integer"
            )
            == 1
        )

    def test_default_timeout_applies_when_request_has_none(self):
        request = _workload(1, 1, bits=16, seed=4)[0]
        svc = _slow_shards(0.4, workers=1, default_timeout=0.05)
        try:
            results = svc.process([request])
        finally:
            svc.close(wait=False)
        assert results[0].error_type == "TimeoutError"

    def test_no_timeout_waits_for_completion(self):
        request = _workload(1, 1, bits=16, seed=5)[0]
        with _slow_shards(0.1, workers=1) as svc:
            results = svc.process([request])
        assert results[0].ok and results[0].value == request.expected()

    def test_inline_timeout_cannot_interrupt_an_execution(self):
        """Inline batches run on the caller's thread before the collector
        looks at them: a finished result is returned however late."""
        request = _workload(1, 1, bits=16, seed=5)[0]
        with ModExpService(
            backend=SleepBackend(0.1),
            registry=_sleepy_registry(0.1),
            worker_kind="inline",
            default_timeout=0.01,
        ) as svc:
            results = svc.process([request])
        assert results[0].ok and results[0].value == request.expected()


class TestBackpressure:
    def test_saturated_service_rejects_rather_than_deadlocks(self):
        """Acceptance regression: queue_limit saturation yields QueueFull
        results and the call completes promptly."""
        # Four moduli -> four 2-request batches; the first fills the window.
        requests = _workload(8, 4, bits=16, seed=6)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            svc = _slow_shards(0.15, workers=1, queue_limit=2, max_batch=16)
            try:
                t0 = time.monotonic()
                results = svc.process(requests, on_full="reject")
                elapsed = time.monotonic() - t0
            finally:
                svc.close()
        rejected = [r for r in results if r.error_type == "QueueFull"]
        completed = [r for r in results if r.ok]
        assert len(rejected) == 6 and len(completed) == 2
        # 2 sleeps' worth of work, not 8: rejection was immediate.
        assert elapsed < 2.0
        counters = registry.counter("serving.requests")
        assert counters.value(status="accepted", backend="integer") == 2
        assert counters.value(status="rejected", backend="integer") == 6
        assert counters.value(status="completed", backend="integer") == 2

    def test_wait_mode_completes_everything(self):
        requests = _workload(6, 2, bits=16, seed=7)
        with _slow_shards(0.02, workers=2, queue_limit=2) as svc:
            results = svc.process(requests, on_full="wait")
        assert all(r.ok for r in results)

    @pytest.mark.parametrize("max_batch, window", [(32, 64), (64, 128), (8, 16)])
    def test_default_shard_window_holds_one_full_batch_per_shard(
        self, max_batch, window
    ):
        with ModExpService(workers=2, max_batch=max_batch) as svc:
            assert svc.pool.queue_limit == window
        with ModExpService(workers=2, max_batch=max_batch, queue_limit=5) as svc:
            assert svc.pool.queue_limit == 5

    def test_bad_on_full_value_rejected(self):
        with ModExpService(worker_kind="inline") as svc:
            with pytest.raises(ParameterError, match="on_full"):
                svc.process([], on_full="drop")


class TestMetrics:
    def test_counters_reflect_accepted_and_completed(self):
        montgomery_cache_clear()
        requests = _workload(9, 3, seed=8)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(worker_kind="inline") as svc:
                svc.process(requests)
        counters = registry.counter("serving.requests")
        assert counters.value(status="accepted", backend="integer") == 9
        assert counters.value(status="completed", backend="integer") == 9
        # One precompute per distinct modulus; 3 batches of 3.
        assert registry.counter("montgomery.precompute").total() == 3
        assert registry.counter("serving.batches").total() == 3
        hist = registry.histogram("serving.batch_size").series()
        assert hist.count == 3 and hist.sum == 9
        # Latency series now carry a worker label too; aggregate() folds
        # every worker's series for the backend together.
        assert registry.histogram("serving.request_cycles").aggregate(
            backend="integer"
        ).count == 9
        assert registry.histogram("serving.request_wall_us").aggregate(
            backend="integer"
        ).count == 9
        assert registry.histogram("serving.request_cycles").series(
            backend="integer", worker="main"
        ).count == 9


class TestServeLoop:
    def test_json_lines_roundtrip_with_flush_marker(self):
        from repro.serving.wire import request_to_json

        requests = _workload(5, 2, seed=9)
        lines = [request_to_json(r) + "\n" for r in requests]
        lines.insert(2, "\n")  # flush marker mid-stream
        out = io.StringIO()
        with ModExpService(worker_kind="inline", max_batch=100) as svc:
            stats = svc.serve(iter(lines), out)
        assert stats == {
            "served": 5, "ok": 5, "failed": 0, "rejected": 0, "parse_errors": 0,
        }
        import json

        payloads = [json.loads(line) for line in out.getvalue().splitlines()]
        by_id = {p["id"]: p for p in payloads}
        for request in requests:
            value = by_id[request.request_id]["value"]
            value = int(value) if isinstance(value, str) else value
            assert value == request.expected()

    def test_malformed_line_answers_immediately_and_loop_continues(self):
        from repro.serving.wire import request_to_json

        good = _workload(2, 1, seed=10)
        lines = [
            request_to_json(good[0]) + "\n",
            '{"nope": 1}\n',
            request_to_json(good[1]) + "\n",
        ]
        out = io.StringIO()
        with ModExpService(worker_kind="inline", max_batch=1) as svc:
            stats = svc.serve(iter(lines), out)
        assert stats["served"] == 3
        assert stats["parse_errors"] == 1 and stats["ok"] == 2
        import json

        payloads = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [p["ok"] for p in payloads] == [True, False, True]
        assert payloads[1]["error_type"] == "WireFormatError"
