#!/usr/bin/env python
"""Post-mortem analysis of an injected bit-flip, end to end.

The flight-recorder loop an on-call engineer would run after a verify
failure, compressed into one script:

1. run a gate-level multiplication with a scheduled single-event upset
   (a DFF bit-flip mid-run) and an armed flight recorder;
2. load the emitted post-mortem bundle and print the trigger context;
3. parse the bundle's VCD back into per-signal histories;
4. differentially re-run the *same operands* on a clean instance and
   report the exact cycle where the struck register forks.

    python examples/postmortem_bitflip.py [dump_dir]
"""

import sys
import tempfile

from repro.analysis.fault import FaultSite
from repro.hdl.waveform import parse_vcd
from repro.observability.flightrec import (
    FlightRecorderHub,
    PostMortemBundle,
    armed,
    find_bundles,
)
from repro.systolic.mmmc_netlist import GateLevelMMMC


def main(dump_dir: str) -> None:
    l, x, y, n = 8, 220, 242, 251
    site = FaultSite(cycle=11, register="t", index=3)

    # -- 1. the faulted run, black box armed --------------------------------
    gate = GateLevelMMMC(l, simulator="compiled")
    hub = FlightRecorderHub(dump_dir=dump_dir, pre=64, post=8)
    hub.set_context(request_id="demo", backend="rtl", seed=0)
    gate.schedule_fault(site)
    with armed(hub):
        run = gate.multiply(x, y, n)
    print(f"faulted run: {x}*{y}*2^-{l + 2} mod {n} -> {run.result} "
          f"in {run.cycles} cycles")

    # -- 2. read the bundle back (what `repro postmortem` does) -------------
    path = find_bundles(dump_dir, "demo")[-1]
    bundle = PostMortemBundle.load(path)
    w = bundle.window
    print(f"bundle: {path}")
    print(f"trigger: cycle {w.trigger_cycle}: {bundle.meta['cause']}")

    # -- 3. the VCD carries the same story ----------------------------------
    with open(f"{path}/{PostMortemBundle.VCD_FILE}") as fh:
        parsed = parse_vcd(fh.read())
    assert parsed.history("t") == w.signals["t"]
    print(f"VCD round-trip: {len(parsed.signals)} signals, "
          f"{len(w.cycles)} samples agree with window.json")

    # -- 4. differential re-run: where does the 't' bus fork? ---------------
    clean = GateLevelMMMC(l, simulator="compiled")
    probe = FlightRecorderHub(
        dump_dir=None, pre=w.trigger_cycle + 1, post=8,
        triggers=[f"cycle=={w.trigger_cycle}"], fire_on_fault=False,
    )
    with armed(probe):
        clean_run = clean.multiply(
            int(bundle.meta["x"]), int(bundle.meta["y"]), int(bundle.meta["n"])
        )
    cw = probe.last_bundle.window
    fork = next(
        c for c in w.cycles
        if cw.value_at("t", c) is not None
        and cw.value_at("t", c) != w.value_at("t", c)
    )
    delta = w.value_at("t", fork) ^ cw.value_at("t", fork)
    print(f"clean re-run result: {clean_run.result}")
    print(f"divergence: 't' forks at cycle {fork} "
          f"(faulted {w.value_at('t', fork):#x} vs clean "
          f"{cw.value_at('t', fork):#x}, XOR {delta:#x})")
    assert fork == w.trigger_cycle == site.cycle
    assert delta == 1 << site.index
    print(f"== injected bit {site.index} at cycle {site.cycle} "
          "recovered exactly from the dump ==")
    print()
    print(bundle.render(["ctr", "t", "c0", "c1", "done"]))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="pm-demo-"))
