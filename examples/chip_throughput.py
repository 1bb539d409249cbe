#!/usr/bin/env python
"""Multi-array chip walkthrough: interleaved waves, tiles, chip serving.

Three acts, each verified as it runs:

1. **Wave interleaving** — two multiplications share one systolic
   lattice on opposite clock parities.  The per-cycle hazard checker
   proves their busy masks never overlap, the results stay bit-identical
   to a sequential run, and the measured idle fraction matches the
   closed-form greedy-schedule model.
2. **The tiled chip** — a 2-tile x 2-wave ``ChipModel`` retires a batch
   behind bounded FIFOs and a dispatcher, ~4x faster than one array.
3. **Chip serving** — mixed-exponent modexp requests (generated by the
   seeded workload generator) through ``ModExpService(backend="chip")``,
   every result checked against ``pow``.

    python examples/chip_throughput.py [l] [chip_ops]
"""

import random
import sys

from repro.chip import ChipModel, InterleavedArray, MMMOp
from repro.chip.schedule import (
    datapath_cycles,
    interleaved_idle_model,
    speedup_model,
)
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.params import precompute_montgomery_constants
from repro.observability import MetricsRegistry, OccupancyRecorder, observe
from repro.serving import ModExpService, WorkloadConfig, generate_workload
from repro.utils.rng import random_odd_modulus


def _ops(l: int, count: int, rng: random.Random):
    n = random_odd_modulus(l, rng)
    ctx = precompute_montgomery_constants(n)
    ops = [
        MMMOp(rng.randrange(n), rng.randrange(n), n, tag=i)
        for i in range(count)
    ]
    golden = {op.tag: montgomery_no_subtraction(ctx, op.x, op.y) for op in ops}
    return ops, golden


def main(l: int = 32, chip_ops: int = 12) -> None:
    rng = random.Random(2003)
    per_mmm = datapath_cycles(l) + 1

    # Act 1: two waves through one lattice, hazard-proven.
    print(f"[1] wave interleaving at l={l}")
    ops, golden = _ops(l, 4, rng)
    occ = OccupancyRecorder()
    arr = InterleavedArray(l, waves=2)
    with observe(occupancy=occ):
        outcomes = arr.run(ops)
    assert all(o.value == golden[o.op.tag] for o in outcomes)
    idle = occ.idle_fraction("interleaved")
    model = interleaved_idle_model(len(ops), l, waves=2)
    lone = interleaved_idle_model(1, l, waves=1)
    print(f"    {len(ops)} MMMs bit-identical to a sequential array")
    print(f"    idle: single-stream {lone:.1%} -> measured {idle:.1%} "
          f"(greedy model {model:.1%})")

    # Act 2: the tiled chip vs one sequential array.
    print(f"[2] 2-tile x 2-wave chip, {chip_ops} MMMs")
    ops, golden = _ops(l, chip_ops, rng)
    chip = ChipModel(l, tiles=2, waves=2, dispatcher="least-depth")
    with observe(occupancy=(chip_occ := OccupancyRecorder())):
        results = chip.run(ops)
    assert all(o.value == golden[o.op.tag] for o in results)
    sequential = chip_ops * per_mmm
    print(f"    makespan {chip.cycle} cycles vs sequential {sequential}")
    print(f"    speedup {sequential / chip.cycle:.2f}x  "
          f"(steady-state model {speedup_model(l, tiles=2, waves=2):.1f}x)")
    for line in chip_occ.heatmap("chip.tiles", unit="tile").splitlines():
        print(f"    {line}")

    # Act 3: mixed-exponent serving on the chip backend.
    print("[3] chip serving backend, mixed-exponent workload")
    workload = generate_workload(
        WorkloadConfig(requests=16, keys=3, bits=(l,), f4_share=0.25),
        seed="chip-example",
    )
    registry = MetricsRegistry()
    with observe(metrics=registry):
        with ModExpService(
            backend="chip", workers=2, worker_kind="shard"
        ) as service:
            served = service.process(workload.requests)
    for request, result in zip(workload.requests, served):
        assert result.ok and result.value == pow(
            request.base, request.exponent, request.modulus
        )
    print(f"    {len(served)}/{len(served)} results verified against pow()")
    print(f"    distinct exponents in one service run: "
          f"{len({r.exponent for r in workload.requests})}")
    dispatched = registry.counter("chip.dispatched").total()
    waves = registry.histogram("chip.waves").aggregate()
    if dispatched and waves.count:
        print(f"    multiplications dispatched to tiles: {dispatched}, "
              f"mean waves in flight {waves.sum / waves.count:.2f}")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 32,
        int(sys.argv[2]) if len(sys.argv) > 2 else 12,
    )
