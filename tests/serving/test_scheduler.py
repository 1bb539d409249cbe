"""Scheduler semantics: coalescing, precompute sharing, dispatch order."""

from __future__ import annotations

from repro.montgomery.params import montgomery_cache_clear
from repro.observability import MetricsRegistry, observe
from repro.serving.backends import IntegerBackend
from repro.serving.request import ModExpRequest
from repro.serving.scheduler import coalesce

N1 = (1 << 47) + 5  # odd 48-bit
N2 = (1 << 47) + 9
N3 = (1 << 31) + 11

BACKEND = IntegerBackend()


def _req(n: int, *, e: int = 65537, deadline=None, l: int = 0) -> ModExpRequest:
    return ModExpRequest(2, e, n, deadline=deadline, l=l)


class TestCoalescing:
    def test_groups_by_modulus(self):
        requests = [_req(N1), _req(N2), _req(N1), _req(N2), _req(N1)]
        batches = coalesce(requests, BACKEND)
        assert len(batches) == 2
        by_key = {b.key: b.size for b in batches}
        assert by_key == {(N1, 0): 3, (N2, 0): 2}

    def test_distinct_width_means_distinct_batch(self):
        # Same modulus, different circuit width -> different constants.
        requests = [_req(N3), _req(N3, l=40)]
        batches = coalesce(requests, BACKEND)
        assert len(batches) == 2
        assert {b.contexts[0].l for b in batches} == {N3.bit_length(), 40}

    def test_context_precomputed_once_per_distinct_modulus(self):
        montgomery_cache_clear()
        registry = MetricsRegistry()
        requests = [_req(N1) for _ in range(10)] + [_req(N2) for _ in range(10)]
        with observe(metrics=registry):
            batches = coalesce(requests, BACKEND)
        # 20 requests, 2 moduli: exactly 2 pre-computations, both counted.
        assert registry.counter("montgomery.precompute").total() == 2
        assert registry.counter("serving.coalesced_precomputes").total() == 2
        assert registry.counter("serving.batches").total() == len(batches) == 2
        assert registry.histogram("serving.batch_size").series().sum == 20

    def test_chunking_respects_max_batch_and_shares_context(self):
        montgomery_cache_clear()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            batches = coalesce([_req(N1) for _ in range(10)], BACKEND, max_batch=4)
        # Cheapest chunk (the remainder of 2) dispatches first.
        assert [b.size for b in batches] == [2, 4, 4]
        # Chunks of one modulus still share a single pre-computation.
        assert registry.counter("montgomery.precompute").total() == 1
        assert registry.counter("serving.coalesced_precomputes").total() == 1
        assert len({id(ctx) for b in batches for ctx in b.contexts}) == 1

    def test_batch_indices_continue_from_start_index(self):
        batches = coalesce([_req(N1), _req(N2)], BACKEND, start_index=7)
        assert sorted(b.index for b in batches) == [7, 8]


class TestDispatchOrder:
    def test_earliest_deadline_first(self):
        late, early = _req(N1, deadline=50.0), _req(N2, deadline=1.0)
        batches = coalesce([late, early], BACKEND)
        assert [b.key for b in batches] == [(N2, 0), (N1, 0)]

    def test_deadline_beats_cost(self):
        # N3 is far cheaper, but N1 carries the deadline.
        cheap = _req(N3)
        urgent = _req(N1, deadline=1.0)
        batches = coalesce([cheap, urgent], BACKEND)
        assert batches[0].key == (N1, 0)

    def test_cost_breaks_ties_without_deadlines(self):
        heavy = _req(N1, e=(1 << 40) + 1)  # long exponent -> dearer batch
        light = _req(N2, e=3)
        batches = coalesce([heavy, light], BACKEND)
        assert [b.key for b in batches] == [(N2, 0), (N1, 0)]
        assert batches[0].estimated_cost < batches[1].estimated_cost

