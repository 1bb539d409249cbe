"""Command-line interface: ``python -m repro <command>`` (or just ``repro``).

Commands
--------
``tables``      regenerate Tables 1 and 2 (model vs paper)
``multiply``    one Montgomery multiplication through a chosen model
``exponentiate``one modular exponentiation with cycle accounting
``observe``     run an instrumented workload, print the metrics snapshot
``serve``       long-running JSON-lines modexp service loop (stdin→stdout)
``batch``       file-in/file-out batch modexp run over the serving engine
``backends``    list the registered serving backends and capabilities
``experiments`` list the experiment registry
``census``      gate/FF census + Virtex-E mapping of the MMMC at a given l
``fault``       run a fault-injection campaign (alias: ``fault-campaign``;
                ``--engine rtl|gate|compiled`` picks the substrate)
``obs``         observability utilities (``obs diff``: snapshot vs baseline
                and/or ``--require`` constraint expressions)
``bench-sim``   compare netlist simulator engines (interpreted/compiled/lanes)
``profile``     profiled workload → unified utilization attribution report
                (array occupancy vs the 2i+j model, lane fill, queue wait;
                ``--chip-ops N`` adds a chip stage with per-tile tracks)
``chip``        run an MMM workload through the multi-array chip model
                (wave-interleaved tiles, FIFO queues, dispatch policies)
``loadgen``     seeded workload generator → JSON-lines for ``repro batch``
                (Zipf keyring traffic, mixed exponents, open-loop bursts)
``top``         terminal live-stats view over a running /metrics endpoint

``multiply``, ``exponentiate`` and ``observe`` accept the observability
flags ``--trace out.json`` (Chrome trace-event timeline for Perfetto /
``chrome://tracing``), ``--trace-detail op|state|cycle``, ``--metrics``
(print a snapshot), ``--metrics-out path`` and ``--format json|prom``
(snapshot format: registry JSON or Prometheus text exposition).

``serve`` additionally takes ``--http-port`` (run the ``/metrics`` +
``/healthz`` scrape endpoint next to the loop), ``--stats-interval``
(periodic stats line on stderr) and the SLO flags ``--slo-margin`` /
``--slo-mode`` / ``--slo-budget`` / ``--no-slo`` shared with ``batch``.

``serve`` and ``batch`` share the self-healing flags (docs/ROBUSTNESS.md):
``--verify off|sampled|full`` + ``--verify-rate`` (online result
verification), ``--retries`` + ``--retry-backoff``, ``--breaker`` +
``--breaker-failures`` / ``--breaker-cooldown``, ``--failover``, and the
chaos-drill switches ``--chaos`` / ``--chaos-seed`` /
``--chaos-kill-rate`` / ``--chaos-exception-rate`` /
``--chaos-latency-rate`` / ``--chaos-bitflip-rate`` /
``--chaos-target-prefix``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.tables import render_table

__all__ = ["main", "build_parser"]


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` / ``--metrics`` flag group."""
    grp = parser.add_argument_group("observability")
    grp.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON timeline (open in Perfetto)",
    )
    grp.add_argument(
        "--trace-detail",
        choices=("op", "state", "cycle"),
        default="state",
        help="span granularity for --trace (default: state segments)",
    )
    grp.add_argument(
        "--metrics",
        action="store_true",
        help="print a metrics snapshot after the run",
    )
    grp.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics snapshot (format per --format)",
    )
    grp.add_argument(
        "--format",
        dest="metrics_format",
        choices=("json", "prom"),
        default="json",
        help="snapshot format: registry JSON or Prometheus text exposition",
    )


def _observation(args):
    """Build (registry, tracer) from the flags; either may be ``None``."""
    from repro.observability import MetricsRegistry, SpanTracer

    registry = (
        MetricsRegistry() if (args.metrics or args.metrics_out) else None
    )
    tracer = SpanTracer(detail=args.trace_detail) if args.trace else None
    return registry, tracer


def _write_metrics(args, registry, out) -> None:
    """Write the registry to ``--metrics-out`` in the ``--format`` shape."""
    if args.metrics_format == "prom":
        registry.write_prometheus(args.metrics_out)
    else:
        registry.write_json(args.metrics_out)
    out.write(
        f"[metrics written to {args.metrics_out} ({args.metrics_format})]\n"
    )


def _finish_observation(args, registry, tracer, out) -> None:
    """Export whatever the flags asked for, after the observed run."""
    if tracer is not None:
        tracer.write(args.trace)
        out.write(
            f"[trace: {len(tracer.events)} events over {tracer.clock.now} "
            f"cycles written to {args.trace} — open at https://ui.perfetto.dev]\n"
        )
    if registry is not None:
        if args.metrics_out:
            _write_metrics(args, registry, out)
        if args.metrics:
            if args.metrics_format == "prom":
                out.write(registry.to_prometheus())
            else:
                out.write(registry.render_text() + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Systolic Montgomery multiplier reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="regenerate Tables 1 and 2")

    mul = sub.add_parser("multiply", help="one Montgomery multiplication")
    mul.add_argument("x", type=lambda s: int(s, 0))
    mul.add_argument("y", type=lambda s: int(s, 0))
    mul.add_argument("modulus", type=lambda s: int(s, 0))
    mul.add_argument(
        "--model",
        choices=("golden", "rtl", "mmmc", "gate"),
        default="mmmc",
        help="which implementation tier to run",
    )
    mul.add_argument(
        "--arch",
        choices=("corrected", "paper"),
        default="corrected",
        help="array architecture (see DESIGN.md findings)",
    )
    mul.add_argument(
        "--engine",
        choices=("compiled", "interpreted"),
        default="compiled",
        help="netlist simulator engine (used by --model gate)",
    )
    _add_observability_flags(mul)

    ex = sub.add_parser("exponentiate", help="modular exponentiation")
    ex.add_argument("base", type=lambda s: int(s, 0))
    ex.add_argument("exponent", type=lambda s: int(s, 0))
    ex.add_argument("modulus", type=lambda s: int(s, 0))
    ex.add_argument(
        "--engine",
        choices=("golden", "rtl", "gate"),
        default="golden",
        help="golden big-int, behavioral RTL, or compiled gate-level netlist",
    )
    _add_observability_flags(ex)

    obs = sub.add_parser(
        "observe",
        help="run an instrumented workload and print the metrics snapshot",
    )
    obs.add_argument("--l", type=int, default=8, help="operand bit length")
    obs.add_argument(
        "--exponent",
        type=lambda s: int(s, 0),
        default=None,
        help="exponent (default: random l-bit, seeded)",
    )
    obs.add_argument("--engine", choices=("golden", "rtl", "gate"), default="rtl")
    obs.add_argument("--arch", choices=("corrected", "paper"), default="corrected")
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument(
        "--gate",
        action="store_true",
        help="also run one gate-level multiplication (populates hdl.* metrics)",
    )
    obs.add_argument(
        "--json",
        action="store_true",
        help="print the snapshot as JSON instead of text",
    )
    _add_observability_flags(obs)

    def _add_serving_flags(parser: argparse.ArgumentParser) -> None:
        grp = parser.add_argument_group("serving")
        grp.add_argument(
            "--backend",
            default="integer",
            help="serving backend name (see `repro backends`; default: integer)",
        )
        grp.add_argument(
            "--workers", type=int, default=1, help="shard worker count"
        )
        grp.add_argument(
            "--worker-kind",
            choices=("inline", "shard"),
            default=None,
            help="serving plane (inline: batches on this thread; shard: "
            "modulus-homed warm worker processes over binary batch frames; "
            "default: shard when --workers > 1, else inline)",
        )
        grp.add_argument(
            "--max-batch",
            type=int,
            default=32,
            help="coalescing chunk size / serve-loop flush threshold",
        )
        grp.add_argument(
            "--queue-limit",
            type=int,
            default=None,
            help="bounded in-flight window in requests "
            "(default: 4 inline, max-batch x workers on shards)",
        )
        grp.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="default per-request timeout in seconds",
        )
        slo = parser.add_argument_group("latency SLO (cycle budget)")
        slo.add_argument(
            "--slo-margin",
            type=float,
            default=1.0,
            help="multiplier on the Eq. (10) cycle budget (default: 1.0)",
        )
        slo.add_argument(
            "--slo-mode",
            choices=("corrected", "paper"),
            default="corrected",
            help="per-multiplication cost: corrected 3l+5 or paper 3l+4",
        )
        slo.add_argument(
            "--slo-budget",
            type=int,
            default=None,
            help="absolute cycle budget per request (bypasses the formula)",
        )
        slo.add_argument(
            "--no-slo",
            action="store_true",
            help="disable SLO tracking",
        )
        rob = parser.add_argument_group("robustness (see docs/ROBUSTNESS.md)")
        rob.add_argument(
            "--verify",
            choices=("off", "sampled", "full"),
            default="off",
            help="online result verification policy (default: off)",
        )
        rob.add_argument(
            "--verify-rate",
            type=float,
            default=0.1,
            help="sampling rate for --verify sampled (default: 0.1)",
        )
        rob.add_argument(
            "--retries",
            type=int,
            default=0,
            help="max attempts per request (0/1 = fail on first error)",
        )
        rob.add_argument(
            "--retry-backoff",
            type=float,
            default=0.01,
            help="base backoff in seconds between attempts (default: 0.01)",
        )
        rob.add_argument(
            "--breaker",
            action="store_true",
            help="enable per-backend circuit breakers",
        )
        rob.add_argument(
            "--breaker-failures",
            type=int,
            default=5,
            help="consecutive failures that trip a breaker (default: 5)",
        )
        rob.add_argument(
            "--breaker-cooldown",
            type=float,
            default=5.0,
            help="seconds an open breaker sheds traffic (default: 5.0)",
        )
        rob.add_argument(
            "--failover",
            action="store_true",
            help="retry via the next-cheapest capable backend when the "
            "primary's breaker is open",
        )
        ovl = parser.add_argument_group(
            "overload & graceful degradation (see docs/ROBUSTNESS.md)"
        )
        ovl.add_argument(
            "--overload",
            action="store_true",
            help="enable the graceful-degradation ladder (deadline "
            "admission, CoDel shedding of batch traffic; add --admit-rate"
            "/--brownout for the other rungs)",
        )
        ovl.add_argument(
            "--admit-rate",
            type=float,
            default=None,
            help="token-bucket admission rate in requests/s (implies "
            "--overload; interactive traffic keeps a reserve slice)",
        )
        ovl.add_argument(
            "--interactive-reserve",
            type=float,
            default=0.25,
            help="bucket fraction only interactive traffic may drain "
            "(default: 0.25)",
        )
        ovl.add_argument(
            "--shed-target",
            type=float,
            default=0.05,
            help="CoDel sojourn target in seconds for batch traffic "
            "(default: 0.05)",
        )
        ovl.add_argument(
            "--default-budget",
            type=float,
            default=None,
            help="relative deadline in seconds stamped on budget-less "
            "batch requests at admission",
        )
        ovl.add_argument(
            "--interactive-budget",
            type=float,
            default=None,
            help="relative deadline for budget-less interactive requests",
        )
        ovl.add_argument(
            "--brownout",
            action="store_true",
            help="under sustained pressure: thin verification, reroute to "
            "cheaper backends, then suspend batch admission "
            "(implies --overload)",
        )
        cha = parser.add_argument_group("chaos injection (drills only)")
        cha.add_argument(
            "--chaos",
            action="store_true",
            help="enable the seeded fault-injection plan",
        )
        cha.add_argument("--chaos-seed", type=int, default=0)
        cha.add_argument(
            "--chaos-kill-rate",
            type=float,
            default=0.0,
            help="per-request worker-kill probability (shard plane only)",
        )
        cha.add_argument("--chaos-exception-rate", type=float, default=0.0)
        cha.add_argument("--chaos-latency-rate", type=float, default=0.0)
        cha.add_argument(
            "--chaos-bitflip-rate",
            type=float,
            default=0.0,
            help="per-request result/register bit-flip probability "
            "(silent — only --verify catches it)",
        )
        cha.add_argument(
            "--chaos-stuck-rate",
            type=float,
            default=0.0,
            help="per-request wedged-worker probability (the stuck monitor "
            "and drain path recover it)",
        )
        cha.add_argument(
            "--chaos-slow-frame-rate",
            type=float,
            default=0.0,
            help="per-batch slow shard-frame-write probability",
        )
        cha.add_argument(
            "--chaos-corrupt-frame-rate",
            type=float,
            default=0.0,
            help="per-batch shard-frame corruption probability (caught by "
            "the frame checksum; degrades the shard, never kills it)",
        )
        cha.add_argument(
            "--chaos-truncate-frame-rate",
            type=float,
            default=0.0,
            help="per-batch shard-frame truncation probability",
        )
        cha.add_argument(
            "--chaos-target-prefix",
            default="",
            help="request-id prefix that always faults on attempt 0 "
            "(deterministic breaker storms)",
        )

    srv = sub.add_parser(
        "serve",
        help="JSON-lines modexp service: one request per stdin line, "
        "one result per stdout line (blank line = flush)",
    )
    _add_serving_flags(srv)
    _add_observability_flags(srv)
    tel = srv.add_argument_group("telemetry endpoint")
    tel.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="serve /metrics (Prometheus) and /healthz on this port (0 = pick)",
    )
    tel.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="bind address for --http-port (default: 127.0.0.1)",
    )
    tel.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        help="print a stats line to stderr every N seconds while serving",
    )

    bat = sub.add_parser(
        "batch",
        help="batch modexp run: JSON-lines workload in, JSON-lines results out",
    )
    bat.add_argument("input", help="workload path, or '-' for stdin")
    bat.add_argument(
        "--out",
        default=None,
        help="results path (default: stdout; summary then goes to stderr)",
    )
    _add_serving_flags(bat)
    _add_observability_flags(bat)

    sub.add_parser(
        "backends", help="list registered serving backends and capabilities"
    )

    obs_cmd = sub.add_parser(
        "obs", help="observability utilities over metrics snapshots"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    diff = obs_sub.add_parser(
        "diff",
        help="regression-gate a metrics snapshot against a committed baseline",
    )
    diff.add_argument(
        "current",
        nargs="?",
        default="benchmarks/results/metrics/serving_baseline.json",
        help="snapshot to check (default: the benchmark run's output)",
    )
    diff.add_argument(
        "--baseline",
        default=None,
        help="committed baseline snapshot (benchmarks/baselines/*.json); "
        "optional when --require constraints are given",
    )
    diff.add_argument(
        "--require",
        action="append",
        default=None,
        metavar="EXPR",
        help="constraint on the current snapshot, e.g. "
        "'serving.faults_detected>0' or 'serving.silent_corruptions==0' "
        "(repeatable; metric value summed over label series, absent = 0)",
    )
    diff.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="allowed relative drift per series (0.15 = ±15%%; default 0.1)",
    )
    diff.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="GLOB",
        help="metric-name glob to skip (repeatable; default: '*wall*')",
    )

    sub.add_parser("experiments", help="list the experiment registry")

    cen = sub.add_parser("census", help="census + Virtex-E mapping of the MMMC")
    cen.add_argument("l", type=int, help="operand bit length")
    cen.add_argument("--arch", choices=("corrected", "paper"), default="paper")

    flt = sub.add_parser(
        "fault",
        aliases=["fault-campaign"],
        help="fault-injection campaign on the array",
    )
    flt.add_argument("--l", type=int, default=12)
    flt.add_argument("--samples", type=int, default=200)
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument(
        "--engine",
        choices=("rtl", "gate", "compiled"),
        default="rtl",
        help="simulation substrate: behavioral RTL, interpreted netlist, "
        "or the compiled bit-sliced engine",
    )
    flt.add_argument(
        "--arch", choices=("corrected", "paper"), default="corrected"
    )

    rep = sub.add_parser("report", help="generate a live reproduction report")
    rep.add_argument("--out", default=None, help="write markdown to this path")
    rep.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser("verilog", help="export the MMMC as structural Verilog")
    ver.add_argument("l", type=int)
    ver.add_argument("--arch", choices=("corrected", "paper"), default="corrected")
    ver.add_argument("--out", default=None)

    bs = sub.add_parser(
        "bench-sim",
        help="compare the netlist simulator engines (interpreted vs "
        "compiled vs compiled+lanes) on the full MMMC",
    )
    bs.add_argument("--l", type=int, default=64, help="operand bit length")
    bs.add_argument(
        "--lanes",
        type=int,
        default=64,
        help="bit-sliced lane count for the batched run (0 = skip)",
    )
    bs.add_argument(
        "--engine",
        choices=("interpreted", "compiled", "both"),
        default="both",
        help="which scalar engines to time",
    )
    bs.add_argument(
        "--repeat", type=int, default=3, help="timed runs per engine (min kept)"
    )
    bs.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="also write the measurement as JSON ('-' = stdout instead of "
        "the table); benchmarks/bench_compiled_sim.py runs the timing "
        "through this in a clean interpreter",
    )
    bs.add_argument(
        "--flightrec",
        action="store_true",
        help="also time the lane batch with an armed flight-recorder "
        "black box and report the capture overhead",
    )
    bs.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot (hdl.flightrec_overhead_pct gauge "
        "etc.) for `repro obs diff --require` gating",
    )

    prof = sub.add_parser(
        "profile",
        help="run a profiled workload and emit the unified utilization "
        "attribution report (occupancy, lane fill, phase/queue breakdown)",
    )
    prof.add_argument(
        "--l", type=int, default=64, help="bit length of the occupancy stage"
    )
    prof.add_argument(
        "--arch", choices=("corrected", "paper"), default="corrected"
    )
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument(
        "--requests",
        type=int,
        default=48,
        help="serving-stage request count over the gate backend; the mix "
        "repeats 6 distinct (modulus, exponent) pairs, so 48 requests "
        "yield lane groups of 8 (0 = skip the serving stage)",
    )
    prof.add_argument(
        "--out", default=None, help="also write the report to this path"
    )
    prof.add_argument(
        "--csv",
        default=None,
        help="write the array occupancy matrix as CSV to this path",
    )
    chp = prof.add_argument_group("chip stage (multi-array model)")
    chp.add_argument(
        "--chip-ops",
        type=int,
        default=0,
        help="run N multiplications through the chip model so the report "
        "gains the chip-health section (0 = skip the stage)",
    )
    chp.add_argument(
        "--chip-tiles", type=int, default=2, help="tiles on the modelled chip"
    )
    chp.add_argument(
        "--chip-waves", type=int, default=2, help="interleaved waves per tile"
    )
    chp.add_argument(
        "--chip-l",
        type=int,
        default=16,
        help="operand bit length of the chip stage (kept small: the stage "
        "steps tiles x waves RTL arrays cycle by cycle)",
    )
    _add_observability_flags(prof)

    chip = sub.add_parser(
        "chip",
        help="run an MMM workload through the multi-array chip model and "
        "compare against a sequential single array",
    )
    chip.add_argument("--l", type=int, default=32, help="operand bit length")
    chip.add_argument(
        "--ops", type=int, default=24, help="number of multiplications"
    )
    chip.add_argument("--tiles", type=int, default=2)
    chip.add_argument(
        "--waves", type=int, default=2, help="interleaved waves per tile array"
    )
    chip.add_argument(
        "--fifo-depth", type=int, default=8, help="per-tile FIFO capacity"
    )
    chip.add_argument(
        "--dispatch",
        choices=("round-robin", "least-depth"),
        default="round-robin",
        help="tile dispatch policy",
    )
    chip.add_argument(
        "--engine",
        choices=("rtl", "gate"),
        default="rtl",
        help="per-tile array substrate (gate caps l at 10)",
    )
    chip.add_argument(
        "--arch", choices=("corrected", "paper"), default="corrected"
    )
    chip.add_argument("--seed", type=int, default=0)
    _add_observability_flags(chip)

    lg = sub.add_parser(
        "loadgen",
        help="seeded workload generator: JSON-lines requests for "
        "`repro batch` / `repro serve` (Zipf keyring, bursty arrivals)",
    )
    lg.add_argument(
        "--out",
        default="-",
        help="output path for the JSON-lines workload ('-' = stdout)",
    )
    lg.add_argument("--requests", type=int, default=200)
    lg.add_argument("--keys", type=int, default=8, help="keyring size")
    lg.add_argument(
        "--bits",
        default="16,24,32",
        help="comma-separated modulus widths, cycled over the keyring",
    )
    lg.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf skew over key ranks (0 = uniform)",
    )
    lg.add_argument(
        "--exponent-bits",
        default="8,16",
        help="comma-separated exponent sizes for the random-exponent share",
    )
    lg.add_argument(
        "--f4-share",
        type=float,
        default=0.0,
        help="fraction of requests using the RSA exponent 65537",
    )
    lg.add_argument(
        "--rate", type=float, default=200.0, help="arrivals per second"
    )
    lg.add_argument(
        "--burst-factor",
        type=float,
        default=1.0,
        help="rate multiplier inside burst windows (1.0 = no bursts)",
    )
    lg.add_argument("--burst-every", type=float, default=1.0)
    lg.add_argument("--burst-len", type=float, default=0.25)
    lg.add_argument(
        "--interactive-share",
        type=float,
        default=0.0,
        help="fraction of requests tagged priority=interactive",
    )
    lg.add_argument(
        "--interactive-budget",
        type=float,
        default=None,
        help="relative deadline (s) carried by interactive requests",
    )
    lg.add_argument(
        "--batch-budget",
        type=float,
        default=None,
        help="relative deadline (s) carried by batch requests",
    )
    lg.add_argument("--seed", default="workload", help="workload seed string")
    lg.add_argument(
        "--summary",
        action="store_true",
        help="print the keyring popularity table (stderr when --out is '-')",
    )

    top = sub.add_parser(
        "top",
        help="terminal live-stats view over a /metrics endpoint "
        "(see `repro serve --http-port`)",
    )
    top.add_argument(
        "url",
        help="telemetry endpoint base URL or /metrics URL, "
        "e.g. http://127.0.0.1:9100",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds (default: 2.0)",
    )
    top.add_argument(
        "--count",
        type=int,
        default=0,
        help="number of refreshes before exiting (0 = until interrupted)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (same as --count 1)",
    )
    top.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="one-shot mode: scrape once and print the dashboard stats "
        "as a JSON object (implies --once; for scripts and CI)",
    )

    prb = sub.add_parser(
        "probe",
        help="triggered logic-analyzer run: arm the flight recorder over "
        "one multiplication and dump the capture window",
    )
    prb.add_argument("--l", type=int, default=8, help="operand bit length")
    prb.add_argument(
        "--engine",
        choices=("interpreted", "compiled", "rtl"),
        default="interpreted",
        help="simulation substrate carrying the probes",
    )
    prb.add_argument(
        "--arch", choices=("corrected", "paper"), default="corrected"
    )
    prb.add_argument("--x", type=int, default=None, help="operand X (seeded if omitted)")
    prb.add_argument("--y", type=int, default=None, help="operand Y (seeded if omitted)")
    prb.add_argument("--n", type=int, default=None, help="odd modulus (seeded if omitted)")
    prb.add_argument("--seed", type=int, default=0)
    prb.add_argument(
        "--trigger",
        action="append",
        default=None,
        metavar="EXPR",
        help="trigger expression: 'fault', 'cycle==12', 'cycle in 8:20', "
        "'done==1', 't changed' (repeatable; default: 'done==1', which "
        "freezes the window at the end of the run)",
    )
    prb.add_argument(
        "--pre", type=int, default=64, help="pre-trigger window, cycles"
    )
    prb.add_argument(
        "--post", type=int, default=8, help="post-trigger window, cycles"
    )
    prb.add_argument(
        "--flip",
        default=None,
        metavar="REG:INDEX@CYCLE",
        help="inject an SEU, e.g. 't:3@11' flips T register bit 3 after "
        "cycle 11's edge (netlist engines only); faults fire the "
        "recorder, so combine with --trigger fault or rely on the default "
        "fire-on-fault behavior",
    )
    prb.add_argument(
        "--vcd", default=None, metavar="PATH", help="write the window as VCD"
    )
    prb.add_argument(
        "--dump-dir",
        default=None,
        metavar="DIR",
        help="also emit a full post-mortem bundle into this directory",
    )
    prb.add_argument(
        "--signals",
        default=None,
        help="comma-separated signal subset for the ASCII diagram",
    )

    pm = sub.add_parser(
        "postmortem",
        help="inspect a flight-recorder post-mortem bundle (meta, trigger, "
        "capture window)",
    )
    pm.add_argument(
        "path",
        help="bundle directory (or its meta.json), or a dump directory "
        "to search with --request-id / latest",
    )
    pm.add_argument(
        "--request-id",
        default=None,
        help="pick the newest bundle for this request id when PATH is a "
        "dump directory",
    )
    pm.add_argument(
        "--signals",
        default=None,
        help="comma-separated signal subset for the waveform diagram",
    )
    pm.add_argument(
        "--vcd", default=None, metavar="PATH", help="re-export the window VCD"
    )
    pm.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="print the bundle metadata as JSON instead of the report",
    )
    return p


def _cmd_tables(out) -> int:
    from repro.fpga.report import table1_rows, table2_rows

    rows2 = table2_rows()
    out.write(
        render_table(
            ["l", "S model", "S paper", "Tp model", "Tp paper", "TMMM model us", "TMMM paper us"],
            [
                [r.l, r.slices, r.paper_slices, round(r.tp_ns, 3), r.paper_tp_ns,
                 round(r.t_mmm_us, 3), r.paper_t_mmm_us]
                for r in rows2
            ],
            title="Table 2 (model vs paper)",
        )
        + "\n\n"
    )
    rows1 = table1_rows()
    out.write(
        render_table(
            ["l", "Tp model", "avg exp model ms", "avg exp paper ms"],
            [
                [r.l, round(r.tp_ns, 3), round(r.avg_exp_ms, 3), r.paper_avg_exp_ms]
                for r in rows1
            ],
            title="Table 1 (model vs paper)",
        )
        + "\n"
    )
    return 0


def _cmd_multiply(args, out) -> int:
    from repro.montgomery.algorithms import montgomery_no_subtraction
    from repro.montgomery.params import precompute_montgomery_constants
    from repro.observability import observe

    ctx = precompute_montgomery_constants(args.modulus)
    golden = montgomery_no_subtraction(ctx, args.x, args.y)
    registry, tracer = _observation(args)
    with observe(metrics=registry, tracer=tracer):
        if args.model == "golden":
            result, cycles = golden, None
        elif args.model == "rtl":
            from repro.systolic.array import SystolicArrayRTL

            r = SystolicArrayRTL(ctx.l, mode=args.arch).run_multiplication(
                args.x, args.y, args.modulus
            )
            result, cycles = r.value, r.total_cycles
        elif args.model == "mmmc":
            from repro.systolic.mmmc import MMMC

            r = MMMC(ctx.l, mode=args.arch).multiply(args.x, args.y, args.modulus)
            result, cycles = r.result, r.cycles
        else:
            from repro.systolic.mmmc_netlist import GateLevelMMMC

            r = GateLevelMMMC(ctx.l, args.arch, simulator=args.engine).multiply(
                args.x, args.y, args.modulus
            )
            result, cycles = r.result, r.cycles
    out.write(f"Mont({args.x}, {args.y}) mod {args.modulus} = {result}\n")
    out.write(f"  = x*y*2^-{ctx.r_exponent} mod N;  golden agrees: {result == golden}\n")
    if cycles is not None:
        out.write(f"  cycles: {cycles} (paper formula 3l+4 = {3 * ctx.l + 4})\n")
    _finish_observation(args, registry, tracer, out)
    return 0 if result == golden else 1


def _cmd_exponentiate(args, out) -> int:
    from repro.observability import observe
    from repro.systolic.exponentiator import ModularExponentiator

    exp = ModularExponentiator.for_modulus(args.modulus, engine=args.engine)
    ctx = exp.ctx
    registry, tracer = _observation(args)
    with observe(metrics=registry, tracer=tracer):
        run = exp.exponentiate(args.base % args.modulus, args.exponent)
    out.write(f"{args.base}^{args.exponent} mod {args.modulus} = {run.result}\n")
    out.write(
        f"  {run.num_multiplications} multiplications, {run.cycles} cycles "
        f"(engine: {args.engine})\n"
    )
    _finish_observation(args, registry, tracer, out)
    return 0


def _cmd_observe(args, out) -> int:
    import random

    from repro.montgomery.params import precompute_montgomery_constants
    from repro.observability import observe
    from repro.systolic.exponentiator import ModularExponentiator
    from repro.utils.rng import random_odd_modulus

    rng = random.Random(args.seed)
    n = random_odd_modulus(args.l, rng)
    ctx = precompute_montgomery_constants(n)
    message = rng.randrange(ctx.modulus)
    exponent = (
        args.exponent
        if args.exponent is not None
        else rng.randrange(1 << (args.l - 1), 1 << args.l)
    )
    registry, tracer = _observation(args)
    if registry is None:  # `observe` always collects metrics
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
    with observe(metrics=registry, tracer=tracer):
        exp = ModularExponentiator(ctx, engine=args.engine, mode=args.arch)
        run = exp.exponentiate(message, exponent)
        if args.gate:
            from repro.systolic.mmmc_netlist import GateLevelMMMC

            GateLevelMMMC(ctx.l, args.arch).multiply(
                message, message, ctx.modulus
            )
    out.write(
        f"observed: {message}^{exponent} mod {n} = {run.result}  "
        f"({run.num_multiplications} multiplications, {run.cycles} cycles, "
        f"engine={args.engine}, arch={args.arch})\n\n"
    )
    if args.metrics_format == "prom":
        out.write(registry.to_prometheus())
    elif args.json:
        out.write(registry.to_json() + "\n")
    else:
        out.write(registry.render_text() + "\n")
    if tracer is not None:
        tracer.write(args.trace)
        out.write(
            f"[trace: {len(tracer.events)} events over {tracer.clock.now} "
            f"cycles written to {args.trace} — open at https://ui.perfetto.dev]\n"
        )
    if args.metrics_out:
        _write_metrics(args, registry, out)
    return 0


def _make_service(args):
    from repro.robustness import (
        BreakerConfig,
        ChaosConfig,
        RetryPolicy,
        VerifyPolicy,
    )
    from repro.serving import ModExpService, SLOPolicy

    slo = (
        None
        if args.no_slo
        else SLOPolicy(
            margin=args.slo_margin,
            mode=args.slo_mode,
            fixed_budget=args.slo_budget,
        )
    )
    verify = (
        VerifyPolicy(mode=args.verify, sample_rate=args.verify_rate)
        if args.verify != "off"
        else None
    )
    chaos = (
        ChaosConfig(
            seed=args.chaos_seed,
            worker_kill_rate=args.chaos_kill_rate,
            exception_rate=args.chaos_exception_rate,
            latency_rate=args.chaos_latency_rate,
            bitflip_rate=args.chaos_bitflip_rate,
            stuck_rate=args.chaos_stuck_rate,
            slow_frame_rate=args.chaos_slow_frame_rate,
            corrupt_frame_rate=args.chaos_corrupt_frame_rate,
            truncate_frame_rate=args.chaos_truncate_frame_rate,
            target_prefix=args.chaos_target_prefix,
        )
        if args.chaos
        else None
    )
    retry = (
        RetryPolicy(max_attempts=args.retries, backoff_s=args.retry_backoff)
        if args.retries > 1
        else None
    )
    breaker = (
        BreakerConfig(
            failure_threshold=args.breaker_failures,
            cooldown_s=args.breaker_cooldown,
        )
        if (args.breaker or args.failover)
        else None
    )
    overload = None
    if args.overload or args.admit_rate is not None or args.brownout:
        from repro.serving import OverloadConfig

        overload = OverloadConfig(
            admit_rate=args.admit_rate,
            interactive_reserve=args.interactive_reserve,
            shed_target_s=args.shed_target,
            brownout=args.brownout,
            default_budget_s=args.default_budget,
            interactive_budget_s=args.interactive_budget,
        )
    return ModExpService(
        backend=args.backend,
        workers=args.workers,
        worker_kind=args.worker_kind,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        default_timeout=args.timeout,
        slo=slo,
        verify=verify,
        chaos=chaos,
        retry=retry,
        breaker=breaker,
        failover=args.failover,
        overload=overload,
    )


def _cmd_serve(args, out) -> int:
    import contextlib
    import threading

    from repro.observability import MetricsRegistry, observe

    registry, tracer = _observation(args)
    if registry is None and (
        args.http_port is not None or args.stats_interval is not None
    ):
        # The scrape endpoint and the stats line read the live registry.
        registry = MetricsRegistry()

    with contextlib.ExitStack() as stack:
        stack.enter_context(observe(metrics=registry, tracer=tracer))
        service = stack.enter_context(_make_service(args))

        if args.http_port is not None:
            from repro.serving import TelemetryServer

            server = TelemetryServer(
                registry,
                host=args.http_host,
                port=args.http_port,
                health=lambda: {
                    "backend": service.backend.name,
                    "workers": service.pool.workers,
                    "queue_depth": service.pool.depth,
                },
            )
            stack.callback(server.stop)
            server.start()
            sys.stderr.write(
                f"[telemetry: {server.url}/metrics and {server.url}/healthz]\n"
            )

        if args.stats_interval is not None:
            stop_stats = threading.Event()
            stack.callback(stop_stats.set)

            def _stats_loop() -> None:
                while not stop_stats.wait(args.stats_interval):
                    sys.stderr.write(_stats_line(registry, service) + "\n")

            threading.Thread(
                target=_stats_loop, name="repro-serve-stats", daemon=True
            ).start()

        stats = service.serve(sys.stdin, out)

    sys.stderr.write(
        f"[serve: {stats['served']} served, {stats['ok']} ok, "
        f"{stats['failed']} failed, {stats['rejected']} rejected, "
        f"{stats['parse_errors']} parse errors]\n"
    )
    _finish_observation(args, registry, tracer, sys.stderr)
    return 0


def _stats_line(registry, service) -> str:
    """One periodic stderr line summarizing the live registry."""
    requests = registry.counter("serving.requests")
    cycles = registry.histogram("serving.request_cycles")
    p95 = cycles.percentile(95)
    violations = registry.counter("serving.slo_violations").total()
    return (
        f"[stats: completed={requests.total(status='completed')} "
        f"failed={requests.total(status='failed')} "
        f"rejected={requests.total(status='rejected')} "
        f"depth={service.pool.depth} "
        f"p95_cycles={'-' if p95 is None else round(p95)} "
        f"slo_violations={violations}]"
    )


def _cmd_batch(args, out) -> int:
    import contextlib

    from repro.observability import observe
    from repro.serving import ModExpResult, read_requests
    from repro.serving.wire import result_to_json

    registry, tracer = _observation(args)

    with contextlib.ExitStack() as stack:
        if args.input == "-":
            in_lines = sys.stdin
        else:
            in_lines = stack.enter_context(open(args.input))
        if args.out:
            results_out = stack.enter_context(open(args.out, "w"))
            summary_out = out
        else:
            results_out = out
            summary_out = sys.stderr

        # Parse the whole workload first, keeping line positions so the
        # output stays aligned with the input even across bad lines.
        items = list(read_requests(in_lines))
        requests = [item for _, item in items if not isinstance(item, Exception)]

        with observe(metrics=registry, tracer=tracer):
            with _make_service(args) as service:
                processed = iter(service.process(requests))

        ok = failed = 0
        for _, item in items:
            if isinstance(item, Exception):
                result = ModExpResult.failure(
                    getattr(item, "request_id", ""), item
                )
            else:
                result = next(processed)
            results_out.write(result_to_json(result) + "\n")
            ok, failed = ok + result.ok, failed + (not result.ok)

    summary_out.write(
        f"[batch: {ok + failed} requests, {ok} ok, {failed} failed, "
        f"backend={args.backend}, workers={args.workers}]\n"
    )
    _finish_observation(args, registry, tracer, summary_out)
    return 0 if failed == 0 else 1


def _cmd_obs_diff(args, out) -> int:
    from repro.observability import (
        DEFAULT_IGNORE,
        check_requirements,
        diff_snapshots,
        load_snapshot,
    )

    if args.baseline is None and not args.require:
        out.write("obs diff: need --baseline and/or --require\n")
        return 2
    try:
        current = load_snapshot(args.current)
    except (OSError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError: a corrupt snapshot is a
        # one-line failure, not a traceback.
        out.write(f"obs diff: cannot read current snapshot: {exc}\n")
        return 2

    compared = 0
    problems: List[str] = []
    if args.baseline is not None:
        try:
            baseline = load_snapshot(args.baseline)
        except (OSError, ValueError) as exc:
            out.write(f"obs diff: cannot read baseline: {exc}\n")
            return 2
        ignore = tuple(args.ignore) if args.ignore else DEFAULT_IGNORE
        compared, problems = diff_snapshots(
            baseline, current, tolerance=args.tolerance, ignore=ignore
        )
        for problem in problems:
            out.write(f"  DRIFT  {problem}\n")

    required: List[str] = []
    if args.require:
        try:
            required = check_requirements(current, args.require)
        except ValueError as exc:
            out.write(f"obs diff: {exc}\n")
            return 2
        for problem in required:
            out.write(f"  REQUIRE  {problem}\n")

    failures = len(problems) + len(required)
    verdict = "FAIL" if failures else "OK"
    against = args.baseline if args.baseline else "(requirements only)"
    out.write(
        f"[obs diff: {verdict} — {compared} series compared against "
        f"{against}, {len(args.require or ())} requirement(s) checked, "
        f"{failures} violation(s)]\n"
    )
    return 1 if failures else 0


def _cmd_backends(out) -> int:
    from repro.serving import default_registry

    out.write(
        render_table(
            ["backend", "max bits", "cycles", "simulator", "needs p,q", "description"],
            default_registry().capability_rows(),
            title="Registered serving backends",
        )
        + "\n"
    )
    return 0


def _cmd_experiments(out) -> int:
    from repro.analysis.experiments import EXPERIMENTS

    out.write(
        render_table(
            ["id", "artifact", "benchmark"],
            [[e.id, e.paper_artifact, e.benchmark] for e in EXPERIMENTS.values()],
            title="Registered experiments",
        )
        + "\n"
    )
    return 0


def _cmd_census(args, out) -> int:
    from repro.fpga.techmap import technology_map
    from repro.fpga.timing_model import estimate_clock_period
    from repro.hdl.census import census
    from repro.systolic.mmmc_netlist import build_mmmc

    ports = build_mmmc(args.l, args.arch)
    cen = census(ports.circuit)
    mapped = technology_map(ports.circuit)
    timing = estimate_clock_period(ports.circuit, args.l, mapped=mapped)
    rows = [[k, v] for k, v in sorted(cen.as_row().items())]
    rows += [
        ["LUT4s", mapped.luts],
        ["slices", mapped.slices],
        ["LUT depth", mapped.lut_depth],
        ["Tp (ns)", round(timing.clock_period_ns, 3)],
    ]
    out.write(
        render_table(
            ["resource", "count"],
            rows,
            title=f"MMMC census, l={args.l}, arch={args.arch}",
        )
        + "\n"
    )
    return 0


def _cmd_fault(args, out) -> int:
    import random

    from repro.analysis.fault import campaign_summary, fault_campaign
    from repro.utils.rng import random_odd_modulus

    rng = random.Random(args.seed)
    n = random_odd_modulus(args.l, rng)
    x, y = rng.randrange(2 * n), rng.randrange(2 * n)
    outs = fault_campaign(
        args.l,
        x,
        y,
        n,
        samples=args.samples,
        seed=args.seed,
        mode=args.arch,
        engine=args.engine,
    )
    summary = campaign_summary(outs)
    out.write(
        render_table(
            ["register", "injections", "corruption rate", "detection rate"],
            [
                [
                    reg,
                    int(v["injections"]),
                    round(v["corruption_rate"], 3),
                    round(v["detection_rate"], 3),
                ]
                for reg, v in summary.items()
            ],
            title=(
                f"Fault campaign: l={args.l}, {args.samples} single-bit "
                f"flips, engine={args.engine}"
            ),
        )
        + "\n"
    )
    return 0


def _cmd_bench_sim(args, out) -> int:
    from repro.analysis.simbench import measure_engines, result_rows

    engines = (
        ("interpreted", "compiled") if args.engine == "both" else (args.engine,)
    )
    result = measure_engines(
        args.l,
        lanes=args.lanes,
        repeat=args.repeat,
        engines=engines,
        flightrec=args.flightrec,
    )
    if args.metrics_out:
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        if result.lane_batch_ms is not None:
            registry.gauge("hdl.lane_batch_ms").set(result.lane_batch_ms)
        if result.flightrec_overhead_pct is not None:
            registry.gauge("hdl.flightrec_overhead_pct").set(
                result.flightrec_overhead_pct
            )
            registry.gauge("hdl.flightrec_batch_ms").set(
                result.flightrec_batch_ms
            )
        registry.write_json(args.metrics_out)
    if args.json_out == "-":
        json.dump(result.as_json(), out)
        out.write("\n")
        return 0
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result.as_json(), fh, indent=2, sort_keys=True)
    out.write(
        render_table(
            ["engine", "ms/MMM", "MMM/s", "gate-evals/s", "speedup"],
            result_rows(result),
            title=(
                f"MMMC netlist simulation, l={args.l} "
                f"({result.gates} gates, {result.dffs} DFFs, "
                f"{result.cycles_per_mult} cycles/MMM)"
            ),
        )
        + "\n"
    )
    if result.compile_s is not None:
        out.write(
            f"[one-off netlist build + kernel codegen: {result.compile_s:.3f}s"
            " (amortized by the structural-key cache)]\n"
        )
    if result.flightrec_overhead_pct is not None:
        out.write(
            f"[flight recorder armed on the {result.lanes}-lane batch: "
            f"{result.flightrec_batch_ms:.3f} ms vs "
            f"{result.lane_batch_ms:.3f} ms disarmed = "
            f"{result.flightrec_overhead_pct:+.2f}% capture overhead]\n"
        )
    return 0


def _profile_serving_stage(args, rng) -> None:
    """The serving leg of ``repro profile``: mixed traffic over the gate backend.

    Three moduli x two exponents at l=10 (the gate backend's width
    ceiling) so coalescing, lane grouping and lane fill are all exercised
    with a deliberately imperfect mix; verification is sampled so the
    verify-overhead attribution has data.
    """
    from repro.robustness import VerifyPolicy
    from repro.serving import ModExpRequest, ModExpService
    from repro.utils.rng import random_odd_modulus

    moduli = [random_odd_modulus(10, rng) for _ in range(3)]
    exponents = [rng.randrange(3, 1 << 8) for _ in range(2)]
    requests = []
    for i in range(args.requests):
        n = moduli[i % len(moduli)]
        requests.append(
            ModExpRequest(
                base=rng.randrange(1, n),
                exponent=exponents[i % len(exponents)],
                modulus=n,
                request_id=f"profile-{i}",
            )
        )
    # Inline: the profiler attributes the gate backend's hook sites from
    # the ambient session, which only the caller's thread feeds.
    with ModExpService(
        backend="gate",
        worker_kind="inline",
        verify=VerifyPolicy(mode="sampled", sample_rate=0.5),
    ) as service:
        service.process(requests)


def _profile_chip_stage(args, rng) -> None:
    """The chip leg of ``repro profile``: tiles x waves over seeded MMM ops.

    Runs under the ambient observe() context, so the chip model's
    ``chip.tile{i}`` / ``chip.tiles`` occupancy tracks and the
    ``chip.waves`` / ``chip.fifo_depth`` histograms land in the same
    registry the report reads — the chip-health section appears exactly
    when this stage ran.
    """
    from repro.chip import ChipModel, MMMOp
    from repro.utils.rng import random_odd_modulus

    n = random_odd_modulus(args.chip_l, rng)
    ops = [
        MMMOp(rng.randrange(n), rng.randrange(n), n, tag=i)
        for i in range(args.chip_ops)
    ]
    chipm = ChipModel(
        args.chip_l,
        tiles=args.chip_tiles,
        waves=args.chip_waves,
        mode=args.arch,
    )
    chipm.run(ops)


def _cmd_profile(args, out) -> int:
    import random

    from repro.montgomery.params import precompute_montgomery_constants
    from repro.observability import (
        MetricsRegistry,
        OccupancyRecorder,
        export_utilization_gauges,
        observe,
        render_report,
    )
    from repro.systolic.exponentiator import ModularExponentiator
    from repro.utils.rng import random_odd_modulus

    rng = random.Random(args.seed)
    registry, tracer = _observation(args)
    if registry is None:  # `profile` always collects metrics
        registry = MetricsRegistry()
    occupancy = OccupancyRecorder()

    # Stage 1: cycle-accurate array occupancy — one RTL exponentiation at
    # the requested l with a short seeded exponent (a handful of MMM waves).
    n = random_odd_modulus(args.l, rng)
    ctx = precompute_montgomery_constants(n)
    message = rng.randrange(ctx.modulus)
    exponent = rng.randrange(1 << 4, 1 << 5)
    with observe(metrics=registry, tracer=tracer, occupancy=occupancy):
        ModularExponentiator(ctx, engine="rtl", mode=args.arch).exponentiate(
            message, exponent
        )
        # Stage 2: serving utilization — lane fill, queue wait, verify.
        if args.requests > 0:
            _profile_serving_stage(args, rng)
        # Stage 3 (opt-in): multi-array chip — per-tile busy tracks,
        # FIFO depths, waves in flight.
        if args.chip_ops > 0:
            _profile_chip_stage(args, rng)

    export_utilization_gauges(registry, occupancy)
    report = render_report(registry, occupancy, l=args.l, mode=args.arch)
    out.write(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        out.write(f"[report written to {args.out}]\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(occupancy.to_csv("array"))
        out.write(f"[occupancy CSV written to {args.csv}]\n")
    _finish_observation(args, registry, tracer, out)
    return 0


def _cmd_chip(args, out) -> int:
    import random

    from repro.chip import (
        ChipModel,
        MMMOp,
        datapath_cycles,
        interleaved_idle_model,
        steady_state_idle_fraction,
    )
    from repro.montgomery.algorithms import montgomery_no_subtraction
    from repro.montgomery.params import precompute_montgomery_constants
    from repro.observability import MetricsRegistry, OccupancyRecorder, observe
    from repro.utils.rng import random_odd_modulus

    rng = random.Random(args.seed)
    n = random_odd_modulus(args.l, rng)
    ctx = precompute_montgomery_constants(n)
    ops = [
        MMMOp(rng.randrange(n), rng.randrange(n), n, tag=i)
        for i in range(args.ops)
    ]
    golden = {
        op.tag: montgomery_no_subtraction(ctx, op.x, op.y) for op in ops
    }

    registry, tracer = _observation(args)
    if registry is None:
        registry = MetricsRegistry()
    occupancy = OccupancyRecorder()
    chipm = ChipModel(
        args.l,
        tiles=args.tiles,
        waves=args.waves,
        mode=args.arch,
        engine=args.engine,
        fifo_depth=args.fifo_depth,
        dispatcher=args.dispatch,
    )
    with observe(metrics=registry, tracer=tracer, occupancy=occupancy):
        outcomes = chipm.run(ops)

    wrong = sum(1 for o in outcomes if o.value != golden[o.op.tag])
    makespan = chipm.cycle
    # One array retiring the same ops back to back: D+1 cycles each.
    seq = args.ops * (datapath_cycles(args.l, args.arch) + 1)
    tile_idles = [
        occupancy.idle_fraction(f"chip.tile{i}") for i in range(args.tiles)
    ]
    measured = [x for x in tile_idles if x is not None]
    rows = [
        ["operations", args.ops],
        ["tiles x waves", f"{args.tiles} x {args.waves}"],
        ["dispatch", args.dispatch],
        ["chip makespan (cycles)", makespan],
        ["sequential 1-array (cycles)", seq],
        ["speedup", f"{seq / makespan:.2f}x" if makespan else "-"],
        [
            "array idle (measured)",
            f"{sum(measured) / len(measured):.1%}" if measured else "-",
        ],
        [
            "array idle (W-wave model)",
            f"{interleaved_idle_model(-(-args.ops // args.tiles), args.l, waves=args.waves, mode=args.arch):.1%}",
        ],
        [
            "array idle (steady state)",
            f"{steady_state_idle_fraction(args.l, waves=args.waves, mode=args.arch):.1%}",
        ],
        ["results verified", f"{len(outcomes) - wrong}/{len(outcomes)}"],
    ]
    out.write(
        render_table(
            ["figure", "value"],
            rows,
            title=(
                f"Chip model: l={args.l}, engine={args.engine}, "
                f"arch={args.arch}"
            ),
        )
        + "\n\n"
    )
    out.write(occupancy.heatmap("chip.tiles", unit="tile") + "\n")
    _finish_observation(args, registry, tracer, out)
    return 0 if wrong == 0 and len(outcomes) == args.ops else 1


def _cmd_loadgen(args, out) -> int:
    import contextlib

    from repro.serving.wire import request_to_json
    from repro.serving.workload import WorkloadConfig, generate_workload

    def _int_tuple(text: str):
        return tuple(int(part) for part in text.split(",") if part.strip())

    config = WorkloadConfig(
        requests=args.requests,
        keys=args.keys,
        bits=_int_tuple(args.bits),
        zipf_s=args.zipf_s,
        exponent_bits=_int_tuple(args.exponent_bits),
        f4_share=args.f4_share,
        rate=args.rate,
        burst_factor=args.burst_factor,
        burst_every=args.burst_every,
        burst_len=args.burst_len,
        interactive_share=args.interactive_share,
        interactive_budget_s=args.interactive_budget,
        batch_budget_s=args.batch_budget,
    )
    workload = generate_workload(config, seed=args.seed)
    with contextlib.ExitStack() as stack:
        if args.out == "-":
            lines_out, info_out = out, sys.stderr
        else:
            lines_out = stack.enter_context(open(args.out, "w"))
            info_out = out
        for request in workload.requests:
            lines_out.write(request_to_json(request) + "\n")
        if args.summary:
            info_out.write(
                render_table(
                    ["rank", "bits", "requests", "share"],
                    workload.summary_rows(),
                    title=f"Keyring popularity (seed={args.seed!r})",
                )
                + "\n"
            )
        span = workload.arrivals[-1] if workload.arrivals else 0.0
        info_out.write(
            f"[loadgen: {len(workload.requests)} requests over "
            f"{span:.3f}s simulated arrivals, {config.keys} keys, "
            f"seed={args.seed!r}]\n"
        )
    return 0


def _mx_total(metrics, name: str, **labels) -> float:
    """Sum a scraped metric over its label series (with label filters)."""
    entry = metrics.get(name)
    if not entry:
        return 0.0
    return sum(
        v
        for lb, v in entry["samples"]
        if all(lb.get(k) == str(w) for k, w in labels.items())
    )


def _mx_mean(metrics, base: str):
    count = _mx_total(metrics, base + "_count")
    return (_mx_total(metrics, base + "_sum") / count) if count else None


def _mx_pctl(metrics, base: str, q: float):
    """Percentile from the cumulative ``_bucket`` series (merged)."""
    entry = metrics.get(base + "_bucket")
    if not entry:
        return None
    cum: dict = {}
    for lb, v in entry["samples"]:
        le = lb.get("le")
        if le is None:
            continue
        bound = float("inf") if le == "+Inf" else float(le)
        cum[bound] = cum.get(bound, 0.0) + v
    bounds = sorted(cum)
    if not bounds or cum[bounds[-1]] <= 0:
        return None
    rank = cum[bounds[-1]] * q / 100.0
    lower = 0.0
    prev = 0.0
    for bound in bounds:
        if cum[bound] >= rank:
            if bound == float("inf"):
                return lower
            span = cum[bound] - prev
            frac = (rank - prev) / span if span else 1.0
            return lower + frac * (bound - lower)
        prev = cum[bound]
        lower = bound if bound != float("inf") else lower
    return bounds[-1]


def _top_summary(metrics) -> dict:
    """The ``repro top`` dashboard stats as one JSON-friendly object."""
    per_worker: dict = {}
    busy = metrics.get("serving_worker_busy_us_total")
    if busy:
        for lb, v in busy["samples"]:
            worker = lb.get("worker", "?")
            per_worker[worker] = per_worker.get(worker, 0.0) + v
    summary = {
        "requests": {
            status: _mx_total(metrics, "serving_requests_total", status=status)
            for status in ("completed", "failed", "rejected", "timeout")
        },
        "queue": {
            "depth": _mx_total(metrics, "serving_queue_depth"),
            "wait_p50_us": _mx_pctl(metrics, "serving_queue_wait_us", 50),
        },
        "cycles": {
            "mean": _mx_mean(metrics, "serving_request_cycles"),
            "p95": _mx_pctl(metrics, "serving_request_cycles", 95),
        },
        "lane_fill": {
            "mean": _mx_mean(metrics, "hdl_lane_fill"),
            "p50": _mx_pctl(metrics, "hdl_lane_fill", 50),
            "wasted_lane_cycles": _mx_total(
                metrics, "hdl_wasted_lane_cycles_total"
            ),
        },
        "slo_violations": _mx_total(metrics, "serving_slo_violations_total"),
        "array_idle_fraction": _mx_total(metrics, "hdl_idle_fraction"),
        "faults": {
            "detected": _mx_total(metrics, "serving_faults_detected_total"),
            "flightrec_dumps": _mx_total(metrics, "hdl_flightrec_dumps_total"),
        },
        "worker_busy_us": per_worker,
    }
    shed = metrics.get("serving_shed_requests_total")
    if shed or metrics.get("serving_brownout_level"):
        shed_by_reason: dict = {}
        if shed:
            for lb, v in shed["samples"]:
                reason = lb.get("reason", "?")
                shed_by_reason[reason] = shed_by_reason.get(reason, 0.0) + v
        summary["overload"] = {
            "shed_by_reason": shed_by_reason,
            "deadline_violations": _mx_total(
                metrics, "serving_deadline_violations_total"
            ),
            "brownout_level": _mx_total(metrics, "serving_brownout_level"),
        }
    shards: dict = {}
    for name, field in (
        ("serving_shard_busy_fraction", "busy_fraction"),
        ("serving_shard_queue_depth", "queue_depth"),
        ("serving_shard_cache_hit_rate", "cache_hit_rate"),
        ("serving_shard_health", "health"),
    ):
        entry = metrics.get(name)
        if entry:
            for lb, v in entry["samples"]:
                shards.setdefault(lb.get("shard", "?"), {})[field] = v
    if shards:
        # Health is exported for every shard slot at pool start; traffic
        # gauges only for shards that saw batches — fill the idle ones.
        for row in shards.values():
            for field in ("busy_fraction", "queue_depth", "cache_hit_rate"):
                row.setdefault(field, 0.0)
        summary["shards"] = {k: shards[k] for k in sorted(shards)}
    if metrics.get("chip_tile_busy_fraction"):
        summary["chip"] = {
            "tile_busy_fraction": _mx_total(metrics, "chip_tile_busy_fraction"),
            "waves_in_flight": _mx_total(metrics, "chip_waves_in_flight"),
            "fifo_depth_p95": _mx_total(metrics, "chip_fifo_depth_p95"),
        }
    return summary


def _render_top_frame(url: str, text: str) -> str:
    """One dashboard frame over a scraped Prometheus exposition."""
    from repro.observability.metrics import parse_prometheus_text

    metrics = parse_prometheus_text(text)

    def total(name: str, **labels) -> float:
        return _mx_total(metrics, name, **labels)

    def mean(base: str):
        return _mx_mean(metrics, base)

    def pctl(base: str, q: float):
        return _mx_pctl(metrics, base, q)

    def fmt(value, digits: int = 0) -> str:
        return "-" if value is None else f"{value:.{digits}f}"

    lines = [f"repro top — {url}"]
    lines.append(
        "requests   completed={:.0f} failed={:.0f} rejected={:.0f} "
        "timeout={:.0f}".format(
            total("serving_requests_total", status="completed"),
            total("serving_requests_total", status="failed"),
            total("serving_requests_total", status="rejected"),
            total("serving_requests_total", status="timeout"),
        )
    )
    lines.append(
        "queue      depth={:.0f} wait_p50={} us".format(
            total("serving_queue_depth"),
            fmt(pctl("serving_queue_wait_us", 50)),
        )
    )
    lines.append(
        "cycles     mean={} p95={} per request".format(
            fmt(mean("serving_request_cycles")),
            fmt(pctl("serving_request_cycles", 95)),
        )
    )
    lines.append(
        "lane fill  mean={} p50={} (wasted lane-cycles={:.0f})".format(
            fmt(mean("hdl_lane_fill"), 1),
            fmt(pctl("hdl_lane_fill", 50)),
            total("hdl_wasted_lane_cycles_total"),
        )
    )
    idle = total("hdl_idle_fraction")
    lines.append(
        "slo        violations={:.0f}   array idle={}".format(
            total("serving_slo_violations_total"),
            f"{idle:.1%}" if idle else "-",
        )
    )
    shed = total("serving_shed_requests_total")
    if shed or metrics.get("serving_brownout_level"):
        lines.append(
            "overload   shed={:.0f} late={:.0f} brownout=L{:.0f}".format(
                shed,
                total("serving_deadline_violations_total"),
                total("serving_brownout_level"),
            )
        )
    busy_mx = metrics.get("serving_shard_busy_fraction")
    if busy_mx:
        health_names = {0: "ok", 1: "deg", 2: "drn", 3: "dead"}
        parts = []
        for lb, v in sorted(
            busy_mx["samples"], key=lambda s: s[0].get("shard", "")
        ):
            sid = lb.get("shard", "?")
            health = ""
            if metrics.get("serving_shard_health"):
                code = int(total("serving_shard_health", shard=sid))
                health = f" {health_names.get(code, '?')}"
            parts.append(
                "s{} busy={:.0%} q={:.0f} hit={:.0%}{}".format(
                    sid,
                    v,
                    total("serving_shard_queue_depth", shard=sid),
                    total("serving_shard_cache_hit_rate", shard=sid),
                    health,
                )
            )
        lines.append("shards     " + "  ".join(parts))
    tile_busy = total("chip_tile_busy_fraction")
    if metrics.get("chip_tile_busy_fraction"):
        waves = total("chip_waves_in_flight")
        fifo = (
            fmt(total("chip_fifo_depth_p95"), 1)
            if metrics.get("chip_fifo_depth_p95")
            else "-"
        )
        lines.append(
            "chip       tile busy={:.1%} waves in flight={:.2f} "
            "fifo p95={}".format(tile_busy, waves, fifo)
        )
    busy = metrics.get("serving_worker_busy_us_total")
    if busy:
        per_worker: dict = {}
        for lb, v in busy["samples"]:
            worker = lb.get("worker", "?")
            per_worker[worker] = per_worker.get(worker, 0.0) + v
        parts = " ".join(
            f"{w}={per_worker[w] / 1000:.0f}ms" for w in sorted(per_worker)
        )
        lines.append(f"workers    busy: {parts}")
    return "\n".join(lines) + "\n"


def _cmd_top(args, out) -> int:
    import time
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/")
    if not url.endswith("/metrics"):
        url += "/metrics"
    count = 1 if (args.once or args.json_out) else args.count
    frames = 0
    try:
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5.0) as resp:
                    text = resp.read().decode("utf-8", "replace")
            except (urllib.error.URLError, OSError) as exc:
                out.write(f"repro top: cannot scrape {url}: {exc}\n")
                return 1
            frames += 1
            if args.json_out:
                from repro.observability.metrics import parse_prometheus_text

                summary = _top_summary(parse_prometheus_text(text))
                summary["url"] = url
                json.dump(summary, out, indent=2, sort_keys=True)
                out.write("\n")
                return 0
            if frames > 1:
                out.write("\x1b[2J\x1b[H")  # clear screen between frames
            out.write(_render_top_frame(url, text))
            if count and frames >= count:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _parse_flip(spec: str):
    """Parse ``REG:INDEX@CYCLE`` into a FaultSite."""
    from repro.analysis.fault import FaultSite

    try:
        reg_part, cycle_txt = spec.rsplit("@", 1)
        reg, index_txt = reg_part.split(":", 1)
        return FaultSite(
            cycle=int(cycle_txt), register=reg.strip(), index=int(index_txt)
        )
    except ValueError:
        raise ValueError(
            f"--flip wants REG:INDEX@CYCLE (e.g. 't:3@11'), got {spec!r}"
        ) from None


def _cmd_probe(args, out) -> int:
    import random

    from repro.observability.flightrec import FlightRecorderHub, armed
    from repro.utils.rng import random_odd_modulus

    rng = random.Random(args.seed)
    n = args.n if args.n is not None else random_odd_modulus(args.l, rng)
    x = args.x if args.x is not None else rng.randrange(n)
    y = args.y if args.y is not None else rng.randrange(n)
    triggers = list(args.trigger or ["done==1"])
    signals = args.signals.split(",") if args.signals else None

    flip = None
    if args.flip is not None:
        try:
            flip = _parse_flip(args.flip)
        except ValueError as exc:
            out.write(f"repro probe: {exc}\n")
            return 2
        if args.engine == "rtl":
            out.write(
                "repro probe: --flip needs a netlist engine "
                "(interpreted or compiled)\n"
            )
            return 2

    hub = FlightRecorderHub(
        dump_dir=args.dump_dir,
        pre=args.pre,
        post=args.post,
        triggers=triggers,
        fire_on_fault=True,
    )
    if args.engine == "rtl":
        # The behavioral array: attach a recorder over its register file
        # directly (``done`` is not in the RTL probe set — trigger on
        # ``cycle``/register signals instead, or the run-end flush).
        from repro.hdl.probes import ProbeSet
        from repro.systolic.array import SystolicArrayRTL

        arr = SystolicArrayRTL(args.l, mode=args.arch)
        ps = ProbeSet.from_values(arr.probe_layout())
        rec = hub.new_recorder(
            ps.names, ps.widths, ps.decode,
            meta={"l": args.l, "mode": args.arch, "engine": "rtl"},
        )
        arr.attach_flight_recorder(rec)
        run = arr.run_multiplication(x, y, n)
        result, cycles = run.value, run.total_cycles
        if not rec.triggered:
            # No trigger fired: freeze whatever the ring holds so the
            # window is still inspectable (a plain logic-analyzer stop).
            rec.notify_fault(arr.cycle - 1, "probe run ended (no trigger)")
        hub.emit(rec, cycles=cycles)
    else:
        from repro.systolic.mmmc_netlist import GateLevelMMMC

        with armed(hub):
            sim = GateLevelMMMC(args.l, mode=args.arch, simulator=args.engine)
            if flip is not None:
                sim.schedule_fault(flip)
            rec_run = sim.multiply(x, y, n)
        result, cycles = rec_run.result, rec_run.cycles
        if hub.last_bundle is None:
            out.write(
                f"probe: trigger {triggers!r} never fired over {cycles} "
                f"cycles (result {result})\n"
            )
            return 1

    bundle = hub.last_bundle
    window = bundle.window
    out.write(
        f"probe: l={args.l} engine={args.engine} x={x} y={y} n={n} "
        f"-> result {result} in {cycles} cycles\n"
    )
    out.write(
        f"trigger: {window.cause!r} at cycle {window.trigger_cycle} "
        f"(window {window.cycles[0]}..{window.cycles[-1]}, "
        f"{len(window.cycles)} samples)\n\n"
    )
    out.write(window.ascii_diagram(signals) + "\n")
    if args.vcd:
        with open(args.vcd, "w") as fh:
            fh.write(window.to_vcd())
        out.write(f"[window VCD written to {args.vcd}]\n")
    if bundle.path:
        out.write(f"[post-mortem bundle: {bundle.path}]\n")
    return 0


def _cmd_postmortem(args, out) -> int:
    import os

    from repro.observability.flightrec import PostMortemBundle, find_bundles

    path = args.path
    if os.path.isdir(path) and not os.path.exists(
        os.path.join(path, PostMortemBundle.META_FILE)
    ):
        # A dump directory: pick by request id, or the newest bundle.
        found = find_bundles(path, args.request_id)
        if not found:
            what = f"request {args.request_id!r}" if args.request_id else "any bundle"
            out.write(f"repro postmortem: no bundle for {what} in {path}\n")
            return 1
        path = found[-1]
    try:
        bundle = PostMortemBundle.load(path)
    except (OSError, ValueError, KeyError) as exc:
        out.write(f"repro postmortem: cannot load bundle at {path}: {exc}\n")
        return 2
    if args.json_out:
        json.dump(bundle.meta, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        signals = args.signals.split(",") if args.signals else None
        out.write(bundle.render(signals) + "\n")
    if args.vcd:
        with open(args.vcd, "w") as fh:
            fh.write(bundle.window.to_vcd())
        out.write(f"[window VCD written to {args.vcd}]\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "tables":
        return _cmd_tables(out)
    if args.command == "multiply":
        return _cmd_multiply(args, out)
    if args.command == "exponentiate":
        return _cmd_exponentiate(args, out)
    if args.command == "observe":
        return _cmd_observe(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "batch":
        return _cmd_batch(args, out)
    if args.command == "backends":
        return _cmd_backends(out)
    if args.command == "obs":
        assert args.obs_command == "diff"
        return _cmd_obs_diff(args, out)
    if args.command == "experiments":
        return _cmd_experiments(out)
    if args.command == "census":
        return _cmd_census(args, out)
    if args.command in ("fault", "fault-campaign"):
        return _cmd_fault(args, out)
    if args.command == "bench-sim":
        return _cmd_bench_sim(args, out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "chip":
        return _cmd_chip(args, out)
    if args.command == "loadgen":
        return _cmd_loadgen(args, out)
    if args.command == "top":
        return _cmd_top(args, out)
    if args.command == "probe":
        return _cmd_probe(args, out)
    if args.command == "postmortem":
        return _cmd_postmortem(args, out)
    if args.command == "report":
        from repro.analysis.report import generate_report

        text = generate_report(args.out, seed=args.seed)
        out.write(text + "\n")
        if args.out:
            out.write(f"[written to {args.out}]\n")
        return 0
    if args.command == "verilog":
        from repro.hdl.verilog import export_verilog
        from repro.hdl.verilog_sim import cosimulate
        from repro.systolic.mmmc_netlist import build_mmmc

        ports = build_mmmc(args.l, args.arch)
        vm = export_verilog(ports.circuit, f"mmmc_l{args.l}")
        checked = cosimulate(ports.circuit, cycles=30, module=vm)
        path = args.out or f"mmmc_l{args.l}.v"
        with open(path, "w") as fh:
            fh.write(vm.text)
        out.write(
            f"exported {vm.name} ({len(vm.text.splitlines())} lines) to {path}; "
            f"co-simulation checked {checked} outputs\n"
        )
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
