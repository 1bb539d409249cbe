"""Malformed shard-wire frames degrade — never kill — and requeue exactly once.

The graded-failure invariants under test:

* **The health machine** walks healthy → degraded → draining on strikes
  (slow batches, corrupt frames, stuck workers) and recovers on clean
  batches; only pipe EOF is death.
* **The wire** rejects a damaged payload with a precise
  :class:`WireFormatError` — the crc32 trailer catches blind damage, and
  structural checks catch re-sealed truncations, garbage flags and
  oversized bigint declarations — without ever desyncing the stream.
* **The parent** treats one corrupt frame (either direction) as shard
  degradation: the worker process survives, the batch is requeued
  exactly once, and a second loss fails over to the retry ladder.
* **A wedged worker** is the one straggler path: the stuck monitor
  drains its shard, the drain terminates it as soon as the grace period
  lapses with work still held, and its request is requeued once to a
  fresh worker, with the attempt bumped so the fault does not re-fire.
"""

from __future__ import annotations

import random
import struct
import time
import zlib
from concurrent.futures import Future

import pytest

from repro.errors import ShardFailure, WireFormatError
from repro.observability import MetricsRegistry, observe
from repro.robustness import ChaosConfig, RetryPolicy, VerifyPolicy
from repro.robustness.chaos import FaultPlan
from repro.serving import ModExpRequest, ModExpService
from repro.serving.health import HealthConfig, ShardHealth
from repro.serving.shard import ShardPool, _PendingBatch
from repro.serving.wire import decode_batch_frame, encode_batch_frame
from repro.utils.rng import random_odd_modulus


def _requests(count, modulus, prefix="fr"):
    rng = random.Random(prefix)
    return [
        ModExpRequest(
            rng.randrange(1, modulus),
            rng.randrange(1, modulus),
            modulus,
            request_id=f"{prefix}{i}",
        )
        for i in range(count)
    ]


def _reseal(body: bytes) -> bytes:
    """Re-append a valid crc32 trailer so structural checks are reached."""
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


class TestShardHealthMachine:
    def test_latency_strikes_degrade_and_clean_batches_recover(self):
        h = ShardHealth(0, HealthConfig(degrade_strikes=1, drain_strikes=3))
        assert h.on_batch_done(100.0) == "healthy"  # seeds the EWMA
        assert h.on_batch_done(10_000.0) == "degraded"  # 100× the mean
        for _ in range(3):  # recover_batches clean results
            state = h.on_batch_done(100.0)
        assert state == "healthy"
        assert h.strikes == 0

    def test_corrupt_frames_weigh_a_full_degrade_step(self):
        h = ShardHealth(1)  # defaults: degrade at 2 strikes, drain at 4
        assert h.on_corrupt_frame() == "degraded"  # one frame = one full step
        assert h.on_corrupt_frame() == "degraded"
        assert h.on_corrupt_frame() == "draining"  # persistent corruption

    def test_stuck_worker_goes_straight_to_draining(self):
        h = ShardHealth(2)
        assert h.on_stuck() == "draining"

    def test_death_and_respawn_reset_the_machine(self):
        h = ShardHealth(3)
        h.on_corrupt_frame()
        assert h.on_death() == "dead"
        assert h.on_respawn() == "healthy"
        assert h.strikes == 0
        assert h.ewma_us is None  # a fresh worker gets a fresh latency prior

    def test_health_gauge_exported_per_shard(self):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            h = ShardHealth(5)
            h.on_corrupt_frame()
        rows = {
            row["labels"]["shard"]: row["value"]
            for row in registry.gauge("serving.shard_health").snapshot()
        }
        assert rows["5"] == 1  # degraded
        transitions = registry.counter("serving.shard_health_transitions")
        assert transitions.total(shard="5", to="degraded") == 1


class TestMalformedFrames:
    """The three mid-stream damage shapes named by the robustness drill."""

    def _frame(self):
        m = random_odd_modulus(48, random.Random("wire"))
        return encode_batch_frame(7, _requests(2, m, prefix="wf"))

    def test_blind_damage_is_caught_by_the_checksum(self):
        frame = bytearray(self._frame())
        frame[len(frame) // 2] ^= 0xFF
        with pytest.raises(WireFormatError, match="checksum mismatch"):
            decode_batch_frame(bytes(frame))

    def test_truncation_after_a_length_prefix(self):
        # Cut the body right after the first key's modulus u32 length
        # prefix (offset 13, past kind+batch_id+attempt+bflags and the u16
        # key count), then re-seal: the reader must fail on the missing
        # payload, not wander off the end.
        body = self._frame()[:-4]
        with pytest.raises(WireFormatError, match="truncated frame"):
            decode_batch_frame(_reseal(body[:17]))

    def test_garbage_batch_flags(self):
        body = bytearray(self._frame()[:-4])
        body[10] = 0xF0  # bits no encoder ever sets
        with pytest.raises(WireFormatError, match="unknown batch flags"):
            decode_batch_frame(_reseal(bytes(body)))

    def test_oversized_bigint_declaration(self):
        body = bytearray(self._frame()[:-4])
        body[13:17] = struct.pack(">I", 0xFFFFFFFF)  # first modulus "length"
        with pytest.raises(WireFormatError, match="exceeds frame bound"):
            decode_batch_frame(_reseal(bytes(body)))


class TestParentSideRecovery:
    def test_corrupt_result_frame_degrades_and_requeues_exactly_once(self):
        m = random_odd_modulus(64, random.Random("requeue"))
        requests = _requests(4, m, prefix="rq")
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ShardPool(shards=1, backend="integer", queue_limit=64) as pool:
                warm = pool.submit_batch(_requests(1, m, prefix="warm"))
                [f.result(timeout=60) for f in warm]
                pid = pool.shard_pids[0]
                # Simulate a result frame the parent could not decode for
                # an in-flight batch: register it pending, then report the
                # corruption the reader would have seen.
                shard = pool._shards[0]
                futures = [Future() for _ in requests]
                pool._window.reserve(len(requests), elastic=True)
                pending = _PendingBatch(999, requests, futures, 0)
                with shard.lock:
                    shard.pending[999] = pending
                pool._frame_corruption(shard, 999, "checksum mismatch (test)")
                # The requeue goes back to the same live worker, which
                # answers it normally — every request exactly once.
                payloads = [f.result(timeout=60) for f in futures]
                assert pool.restarts == 0
                assert pool.shard_pids[0] == pid  # degrade, not kill
                assert pool.health_states()[0] == "degraded"
        assert pending.attempt == 1 and pending.requeued
        for request, payload in zip(requests, payloads):
            assert payload[0] == pow(
                request.base, request.exponent, request.modulus
            )
        assert registry.counter("serving.requeued").total() == len(requests)
        assert registry.counter("serving.corrupt_frames").total() == 1

    def test_second_corruption_fails_over_to_the_retry_ladder(self):
        m = random_odd_modulus(64, random.Random("twice"))
        requests = _requests(3, m, prefix="tw")
        with ShardPool(shards=1, backend="integer", queue_limit=64) as pool:
            shard = pool._shards[0]
            futures = [Future() for _ in requests]
            pool._window.reserve(len(requests), elastic=True)
            # attempt=1: this batch already spent its requeue budget.
            pending = _PendingBatch(1000, requests, futures, 1)
            with shard.lock:
                shard.pending[1000] = pending
            pool._frame_corruption(shard, 1000, "second hit")
            for future in futures:
                with pytest.raises(ShardFailure, match="lost twice"):
                    future.result(timeout=5)
            assert pool.restarts == 0  # still no kill

    def test_worker_nacks_garbage_batch_frame_and_keeps_serving(self):
        # A damaged batch frame mid-stream: the worker answers with a NACK
        # (message boundaries survive), the parent degrades the shard, and
        # the very same worker keeps serving real traffic.
        m = random_odd_modulus(64, random.Random("nack"))
        with ShardPool(shards=1, backend="integer", queue_limit=64) as pool:
            shard = pool._shards[0]
            body = bytearray(encode_batch_frame(555, _requests(1, m))[:-4])
            body[10] = 0xF0  # garbage bflags, crc re-sealed below
            with shard.send_lock:
                shard.conn.send_bytes(_reseal(bytes(body)))
            give_up = time.monotonic() + 10
            while pool.health_states()[0] != "degraded":
                assert time.monotonic() < give_up, "NACK never degraded the shard"
                time.sleep(0.01)
            requests = _requests(4, m, prefix="after")
            payloads = [f.result(timeout=60) for f in pool.submit_batch(requests)]
            assert pool.restarts == 0
        for request, payload in zip(requests, payloads):
            assert payload[0] == pow(
                request.base, request.exponent, request.modulus
            )


    def test_key_index_past_the_table_nacks_and_requeues(self):
        # A batch frame whose request names a key-table entry the frame
        # does not carry: the worker NACKs it, the parent requeues the
        # pending batch with a fresh frame, and no worker is recycled.
        m = random_odd_modulus(64, random.Random("bad-index"))
        requests = _requests(3, m, prefix="bi")
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ShardPool(shards=1, backend="integer", queue_limit=64) as pool:
                shard = pool._shards[0]
                pid = pool.shard_pids[0]
                futures = [Future() for _ in requests]
                pool._window.reserve(len(requests), elastic=True)
                pending = _PendingBatch(777, requests, futures, 0)
                with shard.lock:
                    shard.pending[777] = pending
                body = bytearray(encode_batch_frame(777, requests)[:-4])
                # header 11 | u16 keys | u32 len + 8 modulus bytes | u32 l
                # | u16 count | u16 len + id | u16 key index
                at = 11 + 2 + 4 + 8 + 4 + 2 + 2 + len(requests[0].request_id)
                assert body[at : at + 2] == b"\x00\x00"
                body[at : at + 2] = struct.pack(">H", 9)
                with pytest.raises(WireFormatError, match="past the"):
                    decode_batch_frame(_reseal(bytes(body)))
                with shard.send_lock:
                    shard.conn.send_bytes(_reseal(bytes(body)))
                payloads = [f.result(timeout=60) for f in futures]
                assert pool.restarts == 0
                assert pool.shard_pids[0] == pid
                assert pool.health_states()[0] == "degraded"
        assert pending.attempt == 1 and pending.requeued
        for request, payload in zip(requests, payloads):
            assert payload[0] == pow(request.base, request.exponent, request.modulus)
        assert registry.counter("serving.requeued").total() == len(requests)
        assert registry.counter("serving.corrupt_frames").total() == 1


class TestServiceEndToEnd:
    def test_chaos_truncated_frames_recover_with_zero_corruption(self):
        # truncate_frame_rate=1.0 damages the result frame of every
        # attempt: the batch is requeued once (lost again), fails over to
        # the service's inline retry ladder, and every answer is still
        # verified correct — degradation all the way down, zero silent
        # corruption.
        m = random_odd_modulus(64, random.Random("svc-frames"))
        requests = _requests(4, m, prefix="sv")
        chaos = ChaosConfig(seed=11, truncate_frame_rate=1.0)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(
                backend="integer",
                workers=1,
                worker_kind="shard",
                chaos=chaos,
                retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
                verify=VerifyPolicy(mode="full"),
            ) as service:
                results = service.process(requests)
                health = service.pool.health_states()
        for request, result in zip(requests, results):
            assert result.ok, result.error
            assert result.value == pow(
                request.base, request.exponent, request.modulus
            )
        assert health[0] == "degraded"
        assert registry.counter("serving.corrupt_frames").total() == 2
        assert registry.counter("serving.requeued").total() == len(requests)
        assert "serving.silent_corruptions" not in registry


class TestStuckWorkerRecovery:
    """A wedged worker is recycled and its request requeued, end to end.

    The stuck timeout also runs against the respawned worker's first
    frame, start-up included.  Forked from a parent with a large heap
    (the whole test session), that start-up can exceed 50 ms, which
    would judge the requeue stuck too; half a second keeps it clear.
    """

    STUCK = ChaosConfig(seed=5, stuck_rate=0.5, stuck_s=5.0)
    STUCK_TIMEOUT_S = 0.5

    def _wedged_request(self):
        # The fault plan is a pure function of (request id, attempt): pick
        # an id whose first attempt is stuck and whose requeue is clean.
        plan = FaultPlan(self.STUCK)
        rid = next(
            f"wedge{i}"
            for i in range(1000)
            if plan.decide(f"wedge{i}", 0).kind == "stuck"
            and not plan.decide(f"wedge{i}", 1)
        )
        n = random_odd_modulus(64, random.Random("wedge"))
        return ModExpRequest(3, 65537, n, request_id=rid)

    def _run(self, health):
        request = self._wedged_request()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ShardPool(
                shards=2, backend="integer", chaos=self.STUCK, health=health
            ) as pool:
                started = time.monotonic()
                (future,) = pool.submit_batch([request])
                payload = future.result(timeout=30)
                elapsed = time.monotonic() - started
                restarts, depth = pool.restarts, pool.depth
        assert payload[0] == pow(request.base, request.exponent, request.modulus)
        return elapsed, registry, restarts, depth

    def test_wedged_request_is_answered_by_a_recycled_worker(self):
        health = HealthConfig(stuck_timeout_s=self.STUCK_TIMEOUT_S, drain_timeout_s=0.0)
        elapsed, registry, restarts, depth = self._run(health)
        assert elapsed < self.STUCK.stuck_s / 2
        assert registry.counter("serving.stuck_shards").total() == 1
        assert registry.counter("serving.shard_drains").total() == 1
        assert registry.counter("serving.requeued").total() == 1
        assert restarts == 1
        assert depth == 0  # the window holds nothing afterwards

    def test_drain_terminates_a_worker_still_holding_work(self):
        # A wedged worker never reads the shutdown pill, so waiting for it
        # to exit after the grace period only adds a join timeout.
        health = HealthConfig(
            stuck_timeout_s=self.STUCK_TIMEOUT_S, drain_timeout_s=1.0
        )
        elapsed, _, restarts, _ = self._run(health)
        assert elapsed < health.stuck_timeout_s + 1.6
        assert restarts == 1
