"""End-to-end request telemetry across the process boundary.

The acceptance scenario: a 20-request batch on the service's process
pool — the shard plane's worker processes — must leave the *parent*
registry with one ``serving.request_cycles`` sample per request labelled
by backend and worker, the worker-side ``exponentiator.*`` series merged
in with ``worker`` labels, and an exported Perfetto trace whose worker
spans nest inside their ``serving.request`` spans.
"""

import pytest

import repro.serving.shard as shard_module
from repro.observability import (
    MetricsRegistry,
    REQUEST_SPAN,
    SpanTracer,
    observe,
    validate_chrome_trace,
)
from repro.serving import ModExpRequest, ModExpService
from repro.serving.pool import worker_label

N_REQUESTS = 20
MODULUS = 0xC5AF  # 16-bit odd


def _workload(n=N_REQUESTS):
    return [
        ModExpRequest(
            base=3 + i, exponent=65537, modulus=MODULUS, request_id=f"r{i}"
        )
        for i in range(n)
    ]


def _request_spans(tracer):
    return [
        e
        for e in tracer.to_dict()["traceEvents"]
        if e.get("ph") == "X" and e["name"] == REQUEST_SPAN
    ]


@pytest.fixture(scope="module")
def process_run():
    """One observed 20-request shard-plane batch, shared by the class."""
    registry, tracer = MetricsRegistry(), SpanTracer()
    requests = _workload()
    with ModExpService(backend="integer", workers=2, worker_kind="shard") as svc:
        with observe(metrics=registry, tracer=tracer):
            results = svc.process(requests)
    return requests, results, registry, tracer


class TestProcessPoolAcceptance:
    def test_results_are_correct(self, process_run):
        requests, results, _, _ = process_run
        assert len(results) == N_REQUESTS
        for request, result in zip(requests, results):
            assert result.ok and result.value == request.expected()

    def test_one_cycle_sample_per_request_with_worker_labels(self, process_run):
        _, _, registry, _ = process_run
        hist = registry.histogram("serving.request_cycles")
        agg = hist.aggregate(backend="integer")
        # The regression check: the latency series is NOT empty after a
        # batch that ran in worker processes.
        assert agg is not None and agg.count == N_REQUESTS
        workers = {
            dict(key).get("worker")
            for key, _ in hist._labelled_rows()
        }
        assert workers and all(w and w.startswith("shard") for w in workers)

    def test_worker_metrics_merged_with_worker_labels(self, process_run):
        _, _, registry, _ = process_run
        ops = registry.counter("exponentiator.operations")
        assert ops.total() > 0
        labelled = [dict(key) for key, _ in ops._labelled_rows()]
        assert labelled and all(
            row.get("worker", "").startswith("shard") for row in labelled
        )
        assert registry.counter("exponentiator.exponentiations").total() == N_REQUESTS

    def test_trace_has_nested_request_spans(self, process_run):
        _, _, _, tracer = process_run
        doc = tracer.to_dict()
        assert validate_chrome_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        request_spans = [e for e in spans if e["name"] == REQUEST_SPAN]
        assert len(request_spans) == N_REQUESTS
        assert {e["args"]["request_id"] for e in request_spans} == {
            f"r{i}" for i in range(N_REQUESTS)
        }
        worker_spans = [
            e
            for e in spans
            if e["name"] != REQUEST_SPAN and "worker" in e.get("args", {})
        ]
        assert worker_spans  # the adopted sessions actually carried spans
        # Every worker span lies inside its own request's span window.
        windows = {
            e["args"]["request_id"]: (e["tid"], e["ts"], e["ts"] + e["dur"])
            for e in request_spans
        }
        for span in worker_spans:
            tid, lo, hi = windows[span["args"]["request_id"]]
            assert span["tid"] == tid
            assert lo <= span["ts"] and span["ts"] + span["dur"] <= hi

    def test_wall_us_series_also_per_worker(self, process_run):
        _, _, registry, _ = process_run
        agg = registry.histogram("serving.request_wall_us").aggregate(
            backend="integer"
        )
        assert agg is not None and agg.count == N_REQUESTS


class TestWorkerLabelsByPoolKind:
    def _run(self, kind, workers):
        registry = MetricsRegistry()
        with ModExpService(
            backend="integer", workers=workers, worker_kind=kind
        ) as svc:
            with observe(metrics=registry):
                results = svc.process(_workload(6))
        assert all(r.ok for r in results)
        hist = registry.histogram("serving.request_cycles")
        return {dict(key).get("worker") for key, _ in hist._labelled_rows()}

    def test_inline_worker_is_main(self):
        assert self._run("inline", 1) == {"main"}

    def test_shard_workers_use_shard_names(self):
        workers = self._run("shard", 2)
        assert workers and all(w.startswith("shard") for w in workers)


class TestTraceContextAttachment:
    """What travels with a request toward its executor: its id, plus the
    batch frame's telemetry and span flags on the shard plane."""

    def test_anonymous_requests_get_generated_ids(self):
        tracer = SpanTracer()
        request = ModExpRequest(base=5, exponent=3, modulus=97)
        with ModExpService(backend="integer", workers=2, worker_kind="shard") as svc:
            with observe(tracer=tracer):
                svc.process([request])
        spans = _request_spans(tracer)
        assert len(spans) == 1 and spans[0]["args"]["request_id"] == "idx0"

    def test_no_capture_flags_outside_process_pools(self):
        """The inline plane records straight into the caller's session:
        no per-request span sessions, so no adopted request spans."""
        tracer = SpanTracer()
        with ModExpService(backend="integer", worker_kind="inline") as svc:
            with observe(tracer=tracer):
                results = svc.process(_workload(2))
        assert all(r.ok for r in results)
        assert _request_spans(tracer) == []
        assert tracer.spans()  # the backend's own spans landed directly

    def test_metrics_only_session_records_no_spans(self, monkeypatch):
        frames = _recorded_frame_flags(monkeypatch)
        registry = MetricsRegistry()
        with ModExpService(backend="integer", workers=2, worker_kind="shard") as svc:
            with observe(metrics=registry):
                results = svc.process(_workload(4))
        assert all(r.ok for r in results)
        assert frames and all(f == (True, False) for f in frames)

    def test_worker_label_in_parent_process_is_main(self):
        assert worker_label() == "main"


def _recorded_frame_flags(monkeypatch):
    """Record ``(want_telemetry, want_spans)`` of every batch frame sent."""
    frames = []
    original = shard_module.encode_batch_frame

    def recording(batch_id, requests, **kw):
        frames.append((kw.get("want_telemetry"), kw.get("want_spans")))
        return original(batch_id, requests, **kw)

    monkeypatch.setattr(shard_module, "encode_batch_frame", recording)
    return frames


class TestDisabledObservability:
    def test_process_pool_works_without_a_session(self):
        with ModExpService(backend="integer", workers=2, worker_kind="shard") as svc:
            results = svc.process(_workload(4))
        assert all(r.ok for r in results)

    def test_requests_carry_no_trace_when_disabled(self, monkeypatch):
        frames = _recorded_frame_flags(monkeypatch)
        with ModExpService(backend="integer", workers=2, worker_kind="shard") as svc:
            results = svc.process(_workload(2))
        assert all(r.ok for r in results)
        assert frames and all(f == (False, False) for f in frames)
