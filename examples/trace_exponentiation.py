#!/usr/bin/env python
"""Trace one RTL exponentiation into a Perfetto-openable timeline.

Runs a modular exponentiation through the cycle-accurate hardware model
with the observability layer enabled, then:

* writes a Chrome trace-event JSON (open it at https://ui.perfetto.dev or
  in ``chrome://tracing``) showing the nested span tree — exponentiation
  → per-operation Montgomery multiplications → controller-state segments;
* prints the metrics snapshot: where every cycle went, per controller
  state and per operation kind, against the paper's ``3l+4`` formula.

    python examples/trace_exponentiation.py [trace.json] [bit_length]
"""

import random
import sys

from repro import MontgomeryContext
from repro.observability import MetricsRegistry, SpanTracer, observe
from repro.systolic.exponentiator import ModularExponentiator
from repro.utils.rng import random_odd_modulus


def main(out_path: str = "trace.json", l: int = 8) -> None:
    rng = random.Random(2003)
    n = random_odd_modulus(l, rng)
    ctx = MontgomeryContext(n)
    message = rng.randrange(n)
    exponent = rng.randrange(1 << (l - 1), 1 << l)

    registry = MetricsRegistry()
    tracer = SpanTracer(detail="state")
    with observe(metrics=registry, tracer=tracer):
        exp = ModularExponentiator(ctx, engine="behavioral")
        run = exp.exponentiate(message, exponent)

    print(f"exponentiation: {message}^{exponent} mod {n} = {run.result}")
    print(f"  l = {l}, corrected array: 3l+5 = {3 * l + 5} cycles/multiplication")
    print(f"  {run.num_multiplications} multiplications, {run.cycles} cycles total")
    print()

    states = registry.counter("controller.state_cycles")
    print("cycles by controller state:")
    for state in ("IDLE", "MUL1", "MUL2", "OUT"):
        print(f"  {state:<5} {states.value(state=state)}")
    ops = registry.counter("exponentiator.operations")
    print("operations by kind (squares vs multiplies follow the exponent bits):")
    for kind in ("pre", "square", "multiply", "post"):
        print(f"  {kind:<9} {ops.value(kind=kind)}")
    print()

    # The tracer agrees with the cycle counters — the acceptance check the
    # test-suite pins down.
    assert tracer.span_cycles("exponentiate") == run.cycles
    assert tracer.span_cycles("mmm") == run.cycles
    print(f"span totals agree with measured cycles: {run.cycles} ✔")

    tracer.write(out_path)
    print(f"trace written to {out_path} ({len(tracer.events)} events)")
    print("open it at https://ui.perfetto.dev (or chrome://tracing)")


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "trace.json",
        int(sys.argv[2]) if len(sys.argv) > 2 else 8,
    )
