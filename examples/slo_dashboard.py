#!/usr/bin/env python
"""Per-backend latency-SLO dashboard over the serving engine.

Drives a seeded mixed workload through :class:`repro.serving.ModExpService`
on several backends and prints the SLO table the telemetry pipeline
fills: request counts, p50/p95/p99 latency in *simulated cycles* (the
machine-independent unit the paper's claims are stated in), and the
cycle-budget checks against the Eq. (10) envelope
``margin x 2*bitlen(e) x (3l+5)``.

Two passes make the policy visible: the analytic budget (``margin=1.0``,
which cycle-accurate backends satisfy by construction) and a deliberately
tight ``margin=0.6`` that shows violations firing.

    python examples/slo_dashboard.py
"""

import random
from typing import Dict, List, Tuple

from repro.analysis.tables import render_table
from repro.montgomery.params import montgomery_cache_clear
from repro.observability import MetricsRegistry, observe
from repro.serving import ModExpRequest, ModExpService, SLOPolicy
from repro.utils.rng import random_odd_modulus

# backend, modulus bits, request count, workers, worker kind
CONFIGS: List[Tuple[str, int, int, int, str]] = [
    ("integer", 64, 40, 2, "shard"),
    ("highradix", 64, 40, 1, "inline"),
    ("scalable", 64, 40, 1, "inline"),
    ("rtl", 12, 6, 1, "inline"),
]


def _workload(bits: int, count: int, seed: str) -> List[ModExpRequest]:
    rng = random.Random(seed)
    moduli = [random_odd_modulus(bits, rng) for _ in range(2)]
    return [
        ModExpRequest(
            rng.randrange(moduli[i % 2]),
            rng.randrange(1, moduli[i % 2]),
            moduli[i % 2],
            request_id=f"r{i}",
        )
        for i in range(count)
    ]


def _run_pass(margin: float) -> MetricsRegistry:
    registry = MetricsRegistry()
    for backend, bits, count, workers, kind in CONFIGS:
        requests = _workload(bits, count, seed=f"slo-{backend}")
        with observe(metrics=registry):
            with ModExpService(
                backend=backend,
                workers=workers,
                worker_kind=kind,
                slo=SLOPolicy(margin=margin),
            ) as service:
                results = service.process(requests)
        for request, result in zip(requests, results):
            assert result.ok and result.value == request.expected(), result
    return registry


def main() -> None:
    montgomery_cache_clear()
    analytic = _run_pass(margin=1.0)
    tight = _run_pass(margin=0.6)

    budgets: Dict[str, int] = {}
    policy = SLOPolicy()
    for backend, bits, count, _, _ in CONFIGS:
        requests = _workload(bits, count, seed=f"slo-{backend}")
        budgets[backend] = max(policy.cycle_budget(r) for r in requests)

    rows = []
    for backend, _, _, _, _ in CONFIGS:
        cycles = analytic.histogram("serving.request_cycles")
        rows.append(
            [
                backend,
                int(cycles.aggregate(backend=backend).count),
                round(cycles.percentile(50, backend=backend)),
                round(cycles.percentile(95, backend=backend)),
                round(cycles.percentile(99, backend=backend)),
                budgets[backend],
                analytic.counter("serving.slo_violations").total(backend=backend),
                tight.counter("serving.slo_violations").total(backend=backend),
            ]
        )
    print(
        render_table(
            [
                "backend",
                "requests",
                "p50 cyc",
                "p95 cyc",
                "p99 cyc",
                "max budget",
                "viol @1.0x",
                "viol @0.6x",
            ],
            rows,
            title=(
                "Latency SLOs in simulated cycles "
                "(budget = margin x 2*bitlen(e) x (3l+5), Eq. (10) envelope)"
            ),
        )
    )
    print()
    checks = analytic.counter("serving.slo_checks").total()
    print(
        f"analytic pass: {checks} checks, "
        f"{analytic.counter('serving.slo_violations').total()} violations — "
        f"cycle-accurate backends satisfy margin=1.0 by construction;"
    )
    print(
        f"tight pass (margin=0.6): "
        f"{tight.counter('serving.slo_violations').total()} violations — "
        f"the budget is real, not decorative."
    )


if __name__ == "__main__":
    main()
