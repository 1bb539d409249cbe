"""Shard transport: one frame per target shard per dispatch.

Admission stays per batch (one window slot per request, ``QueueFull``
per batch), but inside a dispatch scope the batches of one dispatch
travel to each shard as one frame.  A frame may therefore mix batch
keys; the worker cuts it by batch key before it runs lanes, so every
backend still sees one key per ``execute_many`` call.  Under test:

* one frame per target (``serving.shard_batches{shard}``);
* mixed-width (``rtl``, ``gate``) and mixed-modulus (``chip``) frames
  answer like the inline plane, value and cycles per request;
* duplicate client ids in one frame, a worker killed while holding a
  multi-key frame, and ``wait`` mode below the dispatch size all answer
  every request exactly once.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import threading
import time

import pytest

from repro.observability import MetricsRegistry, observe
from repro.robustness import ChaosConfig
import repro.serving.shard as shard_module
from repro.serving import ModExpRequest, ModExpService
from repro.serving.shard import ShardMap, ShardPool, placement_key
from repro.utils.rng import random_odd_modulus


def _moduli_homed_on(shard, count, bits, rng, shards=2):
    """``count`` ``bits``-bit moduli whose ring owner is ``shard``."""
    shard_map = ShardMap(shards)
    found = []
    while len(found) < count:
        n = random_odd_modulus(bits, rng)
        if shard_map.owner(placement_key(n, 0)) == shard and n not in found:
            found.append(n)
    return found


def _requests(moduli, per_modulus, rng, *, exponent=None, prefix="r"):
    out = []
    for i in range(per_modulus * len(moduli)):
        n = moduli[i % len(moduli)]
        e = exponent if exponent is not None else rng.randrange(1, 1 << 12)
        out.append(ModExpRequest(rng.randrange(n), e, n, request_id=f"{prefix}{i}"))
    return out


def _serve(kind, requests, *, workers=1, **service_kw):
    registry = MetricsRegistry()
    with ModExpService(workers=workers, worker_kind=kind, **service_kw) as svc:
        with observe(metrics=registry):
            results = svc.process(requests)
    return results, registry


class TestOneFramePerTarget:
    def test_service_dispatch_sends_one_frame_per_shard(self):
        rng = random.Random("frames-two-shards")
        moduli = _moduli_homed_on(0, 3, 64, rng) + _moduli_homed_on(1, 3, 64, rng)
        requests = _requests(moduli, 3, rng)
        results, registry = _serve(
            "shard", requests, workers=2, backend="integer", max_batch=2, queue_limit=64
        )
        assert [r.value for r in results] == [r.expected() for r in requests]
        # max_batch=2 cuts each key's three requests into two batches:
        # twelve batches, two frames.
        assert registry.counter("serving.batches").total() == 12
        frames = registry.counter("serving.shard_batches")
        assert frames.total(shard="0") == 1
        assert frames.total(shard="1") == 1
        sent = registry.counter("serving.shard_requests")
        assert sent.total() == len(requests)

    def test_pool_scope_groups_batches_by_target(self):
        rng = random.Random("frames-scope")
        moduli = [random_odd_modulus(64, rng) for _ in range(4)]
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ShardPool(shards=2, backend="integer", queue_limit=64) as pool:
                futures = []
                with pool.dispatch_scope():
                    for i, n in enumerate(moduli):
                        batch = _requests([n], 2, rng, prefix=f"k{i}-")
                        futures.append((batch, pool.submit_batch(batch, shard=i % 2)))
                        # Staged, not sent: nothing resolves inside the scope.
                        assert not any(f.done() for f in futures[-1][1])
                payloads = [
                    (r, f.result(timeout=30))
                    for batch, fs in futures
                    for r, f in zip(batch, fs)
                ]
        for request, payload in payloads:
            assert payload[0] == request.expected()
        assert {payload[3] for _, payload in payloads} == {"shard0", "shard1"}
        frames = registry.counter("serving.shard_batches")
        assert frames.total(shard="0") == 1 and frames.total(shard="1") == 1

    def test_submit_outside_a_scope_sends_at_once(self):
        rng = random.Random("frames-unscoped")
        n = random_odd_modulus(64, rng)
        with ShardPool(shards=1, backend="integer") as pool:
            (future,) = pool.submit_batch(_requests([n], 1, rng))
            assert future.result(timeout=30)[3] == "shard0"


class TestMixedKeyFrames:
    @pytest.mark.parametrize("backend", ["rtl", "gate"])
    def test_two_widths_in_one_frame_match_the_inline_plane(self, backend):
        rng = random.Random(f"frames-widths-{backend}")
        moduli = [random_odd_modulus(7, rng), random_odd_modulus(10, rng)]
        requests = _requests(moduli, 4, rng, exponent=17)
        requests += _requests(moduli, 2, rng, exponent=5, prefix="e5-")
        inline, _ = _serve("inline", requests, backend=backend)
        shard, registry = _serve("shard", requests, backend=backend)
        assert registry.counter("serving.shard_batches").total() == 1
        assert [r.value for r in shard] == [r.expected() for r in requests]
        assert [(r.request_id, r.value, r.cycles) for r in shard] == [
            (r.request_id, r.value, r.cycles) for r in inline
        ]
        # Each lane group holds one width: two widths x two exponents.
        sizes = registry.histogram("serving.lane_group_size").aggregate()
        assert sizes.count == 4

    def test_chip_two_moduli_in_one_frame_match_the_inline_plane(self):
        rng = random.Random("frames-chip")
        moduli = [random_odd_modulus(6, rng), random_odd_modulus(7, rng)]
        requests = _requests(moduli, 2, rng, exponent=11)
        inline, _ = _serve("inline", requests, backend="chip")
        shard, registry = _serve("shard", requests, backend="chip")
        assert registry.counter("serving.shard_batches").total() == 1
        assert [r.value for r in shard] == [r.expected() for r in requests]
        assert [(r.request_id, r.value, r.cycles) for r in shard] == [
            (r.request_id, r.value, r.cycles) for r in inline
        ]


class TestExactlyOnce:
    def test_duplicate_ids_over_two_batches_of_one_frame(self):
        rng = random.Random("frames-dup")
        moduli = [random_odd_modulus(64, rng) for _ in range(2)]
        requests = [
            ModExpRequest(
                rng.randrange(n), rng.randrange(1, 1 << 16), n, request_id="dup"
            )
            for n in moduli
            for _ in range(2)
        ]
        results, registry = _serve("shard", requests, backend="integer")
        assert registry.counter("serving.shard_batches").total() == 1
        assert len(results) == len(requests)
        assert [r.request_id for r in results] == ["dup"] * len(requests)
        assert [r.value for r in results] == [r.expected() for r in requests]

    def test_worker_killed_holding_a_multi_key_frame(self):
        rng = random.Random("frames-kill")
        moduli = [random_odd_modulus(64, rng) for _ in range(3)]
        slow = ChaosConfig(seed=3, latency_rate=1.0, latency_s=0.05)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ShardPool(shards=2, backend="integer", chaos=slow) as pool:
                batches = [
                    _requests([n], 2, rng, prefix=f"k{i}-") for i, n in enumerate(moduli)
                ]
                with pool.dispatch_scope():
                    futures = [pool.submit_batch(b, shard=0) for b in batches]
                time.sleep(0.1)  # the worker is mid-frame: 6 x 50 ms of latency
                os.kill(pool.shard_pids[0], signal.SIGKILL)
                outcomes = []
                for batch, fs in zip(batches, futures):
                    for request, future in zip(batch, fs):
                        try:
                            outcomes.append((request, future.result(timeout=60)[0]))
                        except Exception as exc:  # a typed failure is an outcome too
                            outcomes.append((request, exc))
                assert pool.restarts >= 1
        assert len(outcomes) == 6
        for request, outcome in outcomes:
            if not isinstance(outcome, Exception):
                assert outcome == request.expected()
        # The frame was requeued whole, once: six requests.
        assert registry.counter("serving.requeued").total() == 6

    def test_wait_mode_below_the_dispatch_size_answers_everything(self):
        rng = random.Random("frames-wait")
        moduli = [random_odd_modulus(64, rng) for _ in range(8)]
        requests = _requests(moduli, 3, rng)
        answered = []
        with ModExpService(
            backend="integer",
            workers=2,
            worker_kind="shard",
            queue_limit=3,
            max_batch=2,
        ) as svc:
            runner = threading.Thread(
                target=lambda: answered.extend(svc.process(requests, on_full="wait")),
                daemon=True,  # a hung dispatcher must not hang the suite
            )
            runner.start()
            runner.join(timeout=120)
            assert not runner.is_alive(), "wait mode hung on staged slots"
        assert [r.value for r in answered] == [r.expected() for r in requests]


class TestConcurrentScopes:
    def test_each_thread_stages_its_own_frames(self, monkeypatch):
        # Four dispatching threads on one pool (more than the cores here),
        # with a short switch interval: a scope is per thread, so each
        # scope sends one frame per target and every request is answered
        # once, with the window empty afterwards.
        rng = random.Random("frames-threads")
        moduli = [random_odd_modulus(64, rng) for _ in range(6)]
        rounds, threads = 5, 4
        work = {
            t: [
                [
                    _requests([n], 2, rng, prefix=f"t{t}r{r}k{i}-")
                    for i, n in enumerate(moduli)
                ]
                for r in range(rounds)
            ]
            for t in range(threads)
        }
        answers = {t: [] for t in range(threads)}
        # Frames are counted at the encoder: list.append is atomic, while
        # a metrics counter's read-modify-write can lose updates here.
        frame_sizes = []
        encode = shard_module.encode_batch_frame

        def counting(batch_id, requests, **kwargs):
            frame_sizes.append(len(requests))
            return encode(batch_id, requests, **kwargs)

        monkeypatch.setattr(shard_module, "encode_batch_frame", counting)
        pool = ShardPool(shards=2, backend="integer", queue_limit=1024)

        def client(t):
            for batches in work[t]:
                with pool.dispatch_scope():
                    futures = [
                        pool.submit_batch(b, shard=i % 2) for i, b in enumerate(batches)
                    ]
                for batch, fs in zip(batches, futures):
                    for request, future in zip(batch, fs):
                        answers[t].append((request, future.result(timeout=60)[0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runners = [threading.Thread(target=client, args=(t,)) for t in range(threads)]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=120)
            assert not any(runner.is_alive() for runner in runners)
            # A reader thread frees a frame's slots just after it resolves
            # the frame's futures.
            give_up = time.monotonic() + 10
            while pool.depth and time.monotonic() < give_up:
                time.sleep(0.01)
            assert pool.depth == 0
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        for t in range(threads):
            assert len(answers[t]) == rounds * len(moduli) * 2
            for request, value in answers[t]:
                assert value == request.expected()
        # One frame per target per scope, each holding that target's three
        # two-request batches.
        assert frame_sizes == [6] * (threads * rounds * 2)
