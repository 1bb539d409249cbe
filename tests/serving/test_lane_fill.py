"""Lane-fill accounting under mixed traffic (the profiler's serving leg).

Coalescing groups the lane backends' requests by *width* (one
Montgomery context per ``(modulus, l)``); lane packing then groups each
batch by *exponent*, so one lane group may span several moduli.  These tests drive deliberately mixed request sets through
both layers and assert the new accounting series — ``hdl.lane_fill``,
``hdl.wasted_lane_cycles``, ``serving.lane_group_size``,
``serving.lane_groups{packed}``, ``serving.coalesce_group_size`` —
report exactly the grouping arithmetic the mix implies.
"""

import random

import pytest

from repro.montgomery.params import precompute_montgomery_constants
from repro.observability import MetricsRegistry, observe
from repro.serving import ModExpRequest, ModExpService
from repro.serving.backends import RTLBackend
from repro.utils.rng import random_odd_modulus


def _mixed_requests(rng, moduli, exponents, count):
    """The profiler's traffic shape: requests cycle through moduli and
    exponents independently, so each (modulus, exponent) pair repeats
    ``count / (len(moduli) * len(exponents))`` times (when divisible)."""
    reqs = []
    for i in range(count):
        n = moduli[i % len(moduli)]
        reqs.append(
            ModExpRequest(
                base=rng.randrange(1, n),
                exponent=exponents[i % len(exponents)],
                modulus=n,
                request_id=f"m{i}",
            )
        )
    return reqs


class TestBackendLaneFill:
    def test_lane_fill_histogram_matches_exponent_groups(self):
        # One modulus, two exponents, 4+4 requests -> two sweeps of fill 4.
        rng = random.Random("fill-groups")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _mixed_requests(rng, [n], [19, 23], 8)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            results = RTLBackend().execute_many([ctx] * len(reqs), reqs)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)

        fill = registry.histogram("hdl.lane_fill").aggregate()
        assert fill.min == fill.max == 4
        # every sweep recorded exactly one fill sample, on a 4-lane word
        assert registry.histogram("hdl.lane_fill").aggregate(lanes=4).count == fill.count
        sweeps = registry.counter("hdl.lanes_packed").total() / 4
        assert sweeps == fill.count
        # the word is the group, so no sweep carries an idle lane
        assert registry.counter("hdl.wasted_lane_cycles").total() == 0

    def test_scalar_dispatch_records_no_fill(self):
        rng = random.Random("fill-scalar")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _mixed_requests(rng, [n], [5, 7, 11], 3)  # singleton groups
        registry = MetricsRegistry()
        with observe(metrics=registry):
            RTLBackend().execute_many([ctx] * len(reqs), reqs)
        assert "hdl.lane_fill" not in registry
        assert registry.counter("hdl.lanes_packed").total() == 0


class TestServiceGroupAccounting:
    def _run(self, moduli_bits, exponents, count, max_batch=64):
        rng = random.Random("svc-fill")
        moduli = [random_odd_modulus(bits, rng) for bits in moduli_bits]
        reqs = _mixed_requests(rng, moduli, exponents, count)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(backend="rtl", max_batch=max_batch) as svc:
                results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, req.modulus)
        return registry, moduli

    def test_mixed_moduli_and_exponents_grouping_arithmetic(self):
        # 3 moduli x 2 exponents, 24 requests, all 10 bits wide: the rtl
        # backend batches by width, so coalescing makes 1 batch of 24
        # (still one precompute of 8 requests per modulus); lane packing
        # splits it into 2 exponent groups of 12, each spanning all 3
        # moduli.
        registry, moduli = self._run([10, 10, 10], [19, 257], 24)
        assert {n.bit_length() for n in moduli} == {10}

        coalesce = registry.histogram("serving.coalesce_group_size").aggregate()
        assert coalesce.count == len(set(moduli)) == 3
        assert coalesce.min == coalesce.max == 8
        assert registry.histogram("serving.batch_size").aggregate().count == 1

        groups = registry.histogram("serving.lane_group_size").aggregate()
        assert groups.count == 2  # 1 batch x 2 exponent groups
        assert groups.min == groups.max == 12
        assert registry.counter("serving.lane_groups").total(packed="yes") == 2
        assert registry.counter("serving.lane_groups").total(packed="no") == 0

        fill = registry.histogram("hdl.lane_fill").aggregate()
        assert fill.min == fill.max == 12
        assert registry.histogram("hdl.lane_fill").percentile(50) == 12.0

    def test_uneven_mix_produces_bimodal_fill(self):
        # One modulus; exponents 9x A and 3x B -> groups of 9 and 3.
        rng = random.Random("svc-bimodal")
        n = random_odd_modulus(10, rng)
        reqs = _mixed_requests(rng, [n], [101], 9)
        reqs += _mixed_requests(rng, [n], [257], 3)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(backend="rtl", max_batch=64) as svc:
                results = svc.process(reqs)
        assert all(r.ok for r in results)
        groups = registry.histogram("serving.lane_group_size").aggregate()
        assert groups.count == 2
        assert (groups.min, groups.max) == (3, 9)
        fill = registry.histogram("hdl.lane_fill").aggregate()
        assert (fill.min, fill.max) == (3, 9)

    def test_singleton_groups_counted_as_unpacked(self):
        # 4 requests, 4 distinct exponents: no group reaches lane width 2.
        registry, _ = self._run([10], [3, 5, 17, 19], 4)
        assert registry.counter("serving.lane_groups").total(packed="no") == 4
        assert registry.counter("serving.lane_groups").total(packed="yes") == 0
        assert "hdl.lane_fill" not in registry

    def test_worker_busy_and_queue_wait_recorded(self):
        registry, _ = self._run([10], [19, 257], 8)
        busy = registry.counter("serving.worker_busy_us").snapshot()
        assert busy and all(row["value"] >= 0 for row in busy)
        waits = registry.histogram("serving.queue_wait_us").aggregate()
        assert waits.count == 8  # one sample per completed request
        assert waits.min >= 0
