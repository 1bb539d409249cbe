"""Compiled-kernel simulation throughput: PR 4's perf claim, measured.

Times the gate-level MMMC through the interpreted simulator, the
compiled single-lane kernel and the compiled 64-lane bit-sliced sweep at
l ∈ {16, 64, 256} on identical netlists and seeded operands.  Each width
is measured by ``repro bench-sim --json -`` in a fresh interpreter: the
pytest process itself slows the huge generated kernel functions by
~30-40% (interpreter-wide overhead that the per-gate interpreter loop
doesn't feel), which would understate exactly the speedup this suite
exists to guard.  The measurement core is
:mod:`repro.analysis.simbench`, shared with the CLI.

Three artifacts come out of one run:

1. ``results/compiled_sim.txt`` — the human-readable comparison table;
2. ``results/compiled_sim.json`` — machine-readable per-width numbers so
   future PRs have a perf trajectory;
3. hard floors from ``baselines/compiled_sim.json`` asserted at l=64:
   the compiled engine must stay ≥16x the interpreter single-lane and
   ≥475x aggregate with 64 lanes, about half of what the cell-sliced
   kernel measures.  A codegen regression, or a silent fallback to the
   per-gate kernel (5.2x / 150x), fails the suite loudly rather than
   silently eroding the speedup.

Engine agreement is cross-checked inside ``measure_engines`` (every
engine must produce identical products), so this is also a coarse
differential test at widths the unit suite doesn't reach.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
from repro.analysis.simbench import SimBenchResult, result_rows
from repro.analysis.tables import render_table
from repro.hdl.compiled import clear_kernel_cache
from repro.systolic.mmmc_netlist import GateLevelMMMC

L_SET = (16, 64, 256)
LANES = 64
BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines", "compiled_sim.json"
)


def _measure_clean(l: int, repeat: int) -> SimBenchResult:
    """Run one width's measurement in a pristine interpreter."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "bench-sim",
            "--l", str(l), "--lanes", str(LANES),
            "--repeat", str(repeat), "--json", "-",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
        check=True,
    )
    return SimBenchResult.from_json(json.loads(proc.stdout))


def test_compiled_engine_speedups(save_table, results_dir, benchmark_metrics):
    results = [
        # min-of-5 rides out GC pauses; the interpreter needs
        # ~0.5 s/mult at l=256, so fewer runs there.
        _measure_clean(l, repeat=5 if l < 256 else 2)
        for l in L_SET
    ]

    tables = []
    for r in results:
        tables.append(
            render_table(
                ["engine", "ms/MMM", "MMM/s", "gate-evals/s", "speedup"],
                result_rows(r),
                title=(
                    f"l={r.l}: {r.gates} gates, {r.dffs} DFFs, "
                    f"{r.cycles_per_mult} cycles/MMM, "
                    f"compile {r.compile_s:.3f}s"
                ),
            )
        )
    save_table("compiled_sim", "\n\n".join(tables))

    payload = {
        "lanes": LANES,
        "results": [r.as_json() for r in results],
    }
    json_path = os.path.join(results_dir, "compiled_sim.json")
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"[perf trajectory written to {json_path}]")

    with open(BASELINE) as fh:
        floors = json.load(fh)
    by_l = {r.l: r for r in results}
    gate = by_l[floors["l"]]
    single = gate.speedup("compiled")
    aggregate = gate.speedup("compiled+lanes")
    assert single >= floors["min_single_lane_speedup"], (
        f"compiled single-lane speedup regressed at l={floors['l']}: "
        f"{single:.1f}x < {floors['min_single_lane_speedup']}x floor"
    )
    assert aggregate >= floors["min_aggregate_speedup"], (
        f"compiled {LANES}-lane aggregate speedup regressed at "
        f"l={floors['l']}: {aggregate:.1f}x < "
        f"{floors['min_aggregate_speedup']}x floor"
    )

    # Kernel-cache accounting, probed under the live session from a cold
    # cache: one compile per distinct structural key (= per l), and the
    # 64-lane instance reuses the scalar kernel because lane count is
    # bound at bind time, not compile time.
    clear_kernel_cache()
    for l in L_SET:
        GateLevelMMMC(l, simulator="compiled")
    GateLevelMMMC(L_SET[0], simulator="compiled", lanes=LANES)
    misses = benchmark_metrics.counter("hdl.compile_cache_misses").total()
    hits = benchmark_metrics.counter("hdl.compile_cache_hits").total()
    assert misses == len(L_SET), (misses, hits)
    assert hits == 1, (misses, hits)
