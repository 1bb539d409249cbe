#!/usr/bin/env python
"""Serving engine walkthrough: coalesced batches through two shard workers.

Generates a mixed-modulus modexp workload, serves it through
:class:`repro.serving.ModExpService`, and shows the batch scheduler's
payoff: one Montgomery pre-computation per distinct modulus instead of
one per request, with every result checked against ``pow``.

    python examples/serve_batch.py [requests] [moduli]
"""

import random
import sys

from repro.montgomery.params import montgomery_cache_clear
from repro.observability import MetricsRegistry, observe
from repro.serving import ModExpRequest, ModExpService
from repro.utils.rng import random_odd_modulus


def main(count: int = 60, distinct: int = 4) -> None:
    rng = random.Random(2003)
    moduli = [random_odd_modulus(128, rng) for _ in range(distinct)]
    requests = [
        ModExpRequest(
            rng.randrange(moduli[i % distinct]),
            rng.randrange(1, moduli[i % distinct]),
            moduli[i % distinct],
            request_id=f"r{i}",
        )
        for i in range(count)
    ]

    print(f"workload: {count} requests over {distinct} distinct 128-bit moduli")
    montgomery_cache_clear()
    registry = MetricsRegistry()
    with observe(metrics=registry):
        with ModExpService(backend="integer", workers=2) as service:
            results = service.process(requests)

    for request, result in zip(requests, results):
        assert result.ok and result.value == request.expected()
    print(f"  all {count} results verified against pow(base, exponent, modulus)")
    print()

    # Unlabelled series: the parent's scheduler.  The shard workers' own
    # series arrive merged with shard labels — one derivation per modulus
    # on its home shard, whose cache then stays warm.
    precompute = registry.counter("montgomery.precompute")
    precomputes = precompute.value()
    on_shards = precompute.total() - precomputes
    batches = registry.counter("serving.batches").total()
    completed = registry.counter("serving.requests").value(
        status="completed", backend="integer"
    )
    cycles = registry.histogram("serving.request_cycles").aggregate(backend="integer")
    print("what the batch scheduler bought:")
    print(f"  Montgomery pre-computations : {precomputes}  (naive: {count})")
    print(f"  ... on the home shards      : {on_shards}")
    print(f"  batches dispatched          : {batches}")
    print(f"  requests completed          : {completed}")
    print(f"  modelled multiplier cycles  : {cycles.sum:,} total, "
          f"{cycles.sum // cycles.count:,} per request")

    # The same moduli again: the constants cache is already warm.
    with observe(metrics=registry):
        with ModExpService(backend="integer", workers=2) as service:
            service.process(requests)
    print(f"  second round pre-computations: "
          f"{precompute.total() - precomputes - on_shards} "
          f"(cache already warm)")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 60,
        int(sys.argv[2]) if len(sys.argv) > 2 else 4,
    )
