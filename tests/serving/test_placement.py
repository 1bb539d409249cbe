"""Cost-balanced shard placement: one decision per dispatch.

:func:`~repro.serving.shard.place_batches` starts every batch on its ring
owner and moves hot (multi-request) batches to the least-loaded alive
shard while a move strictly narrows the gap.  The properties pinned here:

* the maximum shard load never rises;
* only multi-request batches move, and only to alive shards;
* nothing moves when the loads already differ by less than the smallest
  movable batch;
* the result is deterministic.

The pool-level tests cover what placement changes around it: one
dispatch hashes each batch key's ring position once, and a placed batch
whose target is down falls back to the ring owner at once.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import MetricsRegistry, observe
from repro.serving import ModExpRequest, ModExpService, WorkloadConfig, generate_workload
from repro.serving import shard as shard_module
from repro.serving.backends import default_registry
from repro.serving.pool import InlinePool
from repro.serving.scheduler import coalesce
from repro.serving.shard import (
    ShardMap,
    ShardPool,
    batch_placement_key,
    place_batches,
    placement_key,
)
from repro.utils.rng import random_odd_modulus


def _loads(costs, targets, shards):
    load = [0.0] * shards
    for cost, target in zip(costs, targets):
        load[target] += cost
    return load


@st.composite
def dispatches(draw):
    """Random ``(costs, sizes, homes, alive)``; homes are alive shards.

    Costs are whole numbers so the loads sum exactly in any order.
    """
    shards = draw(st.integers(min_value=1, max_value=5))
    alive = draw(st.lists(st.booleans(), min_size=shards, max_size=shards))
    if not any(alive):
        alive[draw(st.integers(min_value=0, max_value=shards - 1))] = True
    live = [s for s, up in enumerate(alive) if up]
    count = draw(st.integers(min_value=0, max_value=24))
    costs = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**6).map(float),
            min_size=count,
            max_size=count,
        )
    )
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=64), min_size=count, max_size=count)
    )
    homes = draw(st.lists(st.sampled_from(live), min_size=count, max_size=count))
    return costs, sizes, homes, alive


class TestPlaceBatches:
    @settings(max_examples=300, deadline=None)
    @given(dispatches())
    def test_max_load_never_rises(self, dispatch):
        costs, sizes, homes, alive = dispatch
        targets = place_batches(costs, sizes, homes, alive)
        before = _loads(costs, homes, len(alive))
        after = _loads(costs, targets, len(alive))
        assert max(after, default=0.0) <= max(before, default=0.0)
        assert sum(after) == sum(before)

    @settings(max_examples=300, deadline=None)
    @given(dispatches())
    def test_only_multi_request_batches_move_and_only_to_alive_shards(
        self, dispatch
    ):
        costs, sizes, homes, alive = dispatch
        targets = place_batches(costs, sizes, homes, alive)
        assert len(targets) == len(homes)
        for size, home, target in zip(sizes, homes, targets):
            if target != home:
                assert size >= 2
                assert alive[target]

    @settings(max_examples=300, deadline=None)
    @given(dispatches())
    def test_nothing_moves_within_the_smallest_movable_batch(self, dispatch):
        costs, sizes, homes, alive = dispatch
        movable = [c for c, size in zip(costs, sizes) if size >= 2]
        load = _loads(costs, homes, len(alive))
        live = [load[s] for s, up in enumerate(alive) if up]
        if movable and max(live) - min(live) < min(movable):
            assert place_batches(costs, sizes, homes, alive) == homes

    def test_nothing_moves_on_near_equal_loads(self):
        costs = [50.0, 40.0, 45.0, 44.0, 1.0]
        sizes = [8, 8, 8, 8, 1]
        homes = [0, 0, 1, 1, 0]
        # Loads 91 / 89: a gap of 2 is below every movable batch.
        assert place_batches(costs, sizes, homes, [True, True]) == homes

    @settings(max_examples=100, deadline=None)
    @given(dispatches())
    def test_deterministic(self, dispatch):
        costs, sizes, homes, alive = dispatch
        first = place_batches(costs, sizes, homes, alive)
        assert place_batches(list(costs), list(sizes), list(homes), list(alive)) == first

    def test_hot_batch_moves_to_the_lowest_least_loaded_shard(self):
        # Two hot batches share shard 0; shards 1 and 2 tie at zero load.
        # The larger moves first; the smaller then equals the gap and stays.
        targets = place_batches([60.0, 50.0], [4, 4], [0, 0], [True, True, True])
        assert targets == [1, 0]

    def test_single_request_batches_never_move(self):
        assert place_batches([90.0, 5.0], [1, 1], [0, 0], [True, True]) == [0, 0]

    def test_dead_shards_receive_nothing(self):
        targets = place_batches([60.0, 50.0], [4, 4], [0, 0], [True, False, True])
        assert targets == [2, 0]


class TestKeyringShape:
    """The benchmark's keyring traffic, replayed through the rule.

    Consistent hashing homes 6 of the 8 keys, the hottest among them, on
    shard 0.  Rebuilt here: the fixed keyring of seed
    ``"perfbench-keyring"``, a seed-0 request trace mapped onto it by key
    rank, 64-request windows coalesced the way the service does.
    """

    TRAFFIC = WorkloadConfig(keys=8, bits=(192, 256), zipf_s=1.2, exponent_bits=(64,))
    WINDOW = 64
    TRACE = 8192

    def _windows(self):
        ring = generate_workload(
            replace(self.TRAFFIC, requests=0), seed="perfbench-keyring"
        ).keyring
        generated = generate_workload(
            replace(self.TRAFFIC, requests=self.TRACE), seed="keyring/0"
        )
        rank = {}
        for k, n in enumerate(generated.keyring):
            rank.setdefault(n, k)
        trace = []
        for request in generated.requests:
            n = ring[rank[request.modulus]]
            trace.append(replace(request, modulus=n, base=1 + request.base % (n - 1)))
        for lo in range(0, len(trace), self.WINDOW):
            yield trace[lo : lo + self.WINDOW]

    def test_max_over_fair_share(self):
        backend = default_registry().get("integer")
        shard_map = ShardMap(2)
        home_ratios, placed_ratios = [], []
        for window in self._windows():
            batches = coalesce(window, backend, max_batch=self.WINDOW)
            costs = [b.estimated_cost for b in batches]
            sizes = [b.size for b in batches]
            homes = [shard_map.owner(batch_placement_key(b.key)) for b in batches]
            targets = place_batches(costs, sizes, homes, shard_map.alive)
            fair = sum(costs) / 2
            home_ratios.append(max(_loads(costs, homes, 2)) / fair)
            placed_ratios.append(max(_loads(costs, targets, 2)) / fair)
        assert statistics.mean(home_ratios) > 1.5  # the ring alone is lopsided
        assert statistics.mean(placed_ratios) <= 1.05


def _moduli_homed_on(shard, count, shards, rng):
    """``count`` 64-bit moduli whose ring owner is ``shard``."""
    shard_map = ShardMap(shards)
    found = []
    while len(found) < count:
        n = random_odd_modulus(64, rng)
        if shard_map.owner(placement_key(n, 0)) == shard:
            found.append(n)
    return found


def _batch(n, count, prefix):
    return [
        ModExpRequest(3 + i, 65537, n, request_id=f"{prefix}{i}") for i in range(count)
    ]


class TestPoolPlacement:
    def test_service_spreads_two_hot_keys_sharing_a_home(self):
        rng = random.Random("placement-service")
        hot = _moduli_homed_on(0, 2, 2, rng)
        requests = _batch(hot[0], 8, "a") + _batch(hot[1], 8, "b")
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(
                backend="integer", workers=2, worker_kind="shard"
            ) as service:
                results = service.process(requests)
        for request, result in zip(requests, results):
            assert result.ok, result.error
            assert result.value == request.expected()
        moves = registry.counter("serving.placement_moves")
        assert moves.total() == 1
        assert moves.total(**{"from": "0", "to": "1"}) == 1
        batches = registry.counter("serving.shard_batches")
        assert batches.total(shard="0") == 1
        assert batches.total(shard="1") == 1

    def test_one_dispatch_hashes_each_batch_key_once(self, monkeypatch):
        # Three keys, each split over several batches by max_batch: the
        # placement and every send of one dispatch hash a key at most once.
        rng = random.Random("one-hash")
        moduli = [random_odd_modulus(64, rng) for _ in range(3)]
        requests = [
            r for i, n in enumerate(moduli) for r in _batch(n, 4 + 3 * i, f"k{i}-")
        ]
        backend = default_registry().get("integer")
        batches = coalesce(requests, backend, max_batch=3)
        keys = {b.key for b in batches}
        assert len(batches) > len(keys) == 3
        hashed = Counter()
        real = shard_module.batch_placement_key

        def counting(key):
            hashed[key] += 1
            return real(key)

        monkeypatch.setattr(shard_module, "batch_placement_key", counting)
        with ShardPool(shards=2, backend="integer", queue_limit=256) as pool:
            targets = pool.place(batches)
            futures = [
                f
                for batch, target in zip(batches, targets)
                for f in pool.submit_batch(batch.requests, shard=target)
            ]
            payloads = [f.result(timeout=30) for f in futures]
        assert hashed == Counter({key: 1 for key in keys})
        sent = [r for batch in batches for r in batch.requests]
        for request, payload in zip(sent, payloads):
            assert payload[0] == request.expected()

    def test_inline_pool_places_everything_on_its_one_executor(self):
        pool = InlinePool(default_registry().get("integer"), registry=default_registry())
        assert pool.place([object(), object()]) == [0, 0]


class TestDownTargets:
    def test_dead_target_falls_back_or_gives_up_at_once(self):
        n = _moduli_homed_on(0, 1, 2, random.Random("down-target"))[0]
        with ShardPool(shards=2, backend="integer", queue_limit=64) as pool:
            # Shard 1 is flagged dead while the ring still lists it: the
            # window between a worker's EOF and its ring update.
            pool._shards[1].dead = True
            started = time.monotonic()
            placed = pool.submit_batch(_batch(n, 4, "p"), shard=1)
            payloads = [f.result(timeout=5) for f in placed]
            assert time.monotonic() - started < 1.0
            assert {p[3] for p in payloads} == {"shard0"}  # the ring owner
            pool._shards[1].dead = False

    def test_target_off_the_ring_falls_back_to_the_owner(self):
        n = _moduli_homed_on(0, 1, 2, random.Random("draining-target"))[0]
        with ShardPool(shards=2, backend="integer", queue_limit=64) as pool:
            pool.map.mark_dead(1)  # draining: off the ring, worker still up
            (future,) = pool.submit_batch(_batch(n, 1, "d"), shard=1)
            assert future.result(timeout=5)[3] == "shard0"
            pool.map.mark_alive(1)
