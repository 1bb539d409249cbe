"""Utilization profiler: attribution, exported gauges, Prometheus parsing.

The profiler reads metrics other layers recorded; these tests feed it
hand-built registries (exact arithmetic, no simulation) plus one real
exponentiation to pin the end-to-end phase split.  The Prometheus half
covers the text-exposition contract ``repro top`` scrapes: real
cumulative ``_bucket`` series, the 0.0.4 Content-Type, and
``parse_prometheus_text`` as the inverse of ``to_prometheus``.
"""

import urllib.request

import pytest

from repro.observability import (
    MetricsRegistry,
    OccupancyRecorder,
    attribute_cycles,
    attribute_serving,
    export_utilization_gauges,
    check_requirements,
    observe,
    render_report,
)
from repro.observability.metrics import parse_prometheus_text


def _cycles_registry():
    reg = MetricsRegistry()
    hist = reg.histogram("exponentiator.operation_cycles")
    hist.observe(100, kind="pre")
    for _ in range(3):
        hist.observe(200, kind="square")
    hist.observe(200, kind="multiply")
    hist.observe(50, kind="window-op")
    hist.observe(100, kind="post")
    return reg


class TestAttributeCycles:
    def test_phase_split(self):
        phases = attribute_cycles(_cycles_registry())
        assert phases["precompute"] == {
            "cycles": 100,
            "operations": 1,
            "fraction": 100 / 1050,
        }
        assert phases["mmm-squares"]["cycles"] == 600
        # multiply + window-op fold into one phase
        assert phases["mmm-multiplies"] == {
            "cycles": 250,
            "operations": 2,
            "fraction": 250 / 1050,
        }
        assert phases["drain"]["cycles"] == 100
        assert phases["total"]["cycles"] == 1050

    def test_empty_registry_reports_zeros(self):
        phases = attribute_cycles(MetricsRegistry())
        assert phases["total"]["cycles"] == 0
        assert phases["precompute"]["fraction"] == 0.0

    def test_real_exponentiation_covers_every_phase(self):
        import random

        from repro.montgomery.params import precompute_montgomery_constants
        from repro.systolic.exponentiator import ModularExponentiator
        from repro.utils.rng import random_odd_modulus

        rng = random.Random(3)
        ctx = precompute_montgomery_constants(random_odd_modulus(16, rng))
        reg = MetricsRegistry()
        with observe(metrics=reg):
            ModularExponentiator(ctx, engine="behavioral").exponentiate(
                rng.randrange(ctx.modulus), 0b10110
            )
        phases = attribute_cycles(reg)
        assert phases["precompute"]["operations"] == 1
        assert phases["drain"]["operations"] == 1
        assert phases["mmm-squares"]["operations"] == 4  # bitlen-1 squares
        assert sum(
            phases[p]["fraction"]
            for p in ("precompute", "mmm-squares", "mmm-multiplies", "drain")
        ) == pytest.approx(1.0)


class TestAttributeServing:
    def test_wall_time_split_and_workers(self):
        reg = MetricsRegistry()
        reg.histogram("serving.queue_wait_us").observe(100, backend="gate")
        reg.histogram("serving.queue_wait_us").observe(300, backend="gate")
        reg.histogram("serving.request_wall_us").observe(500, backend="gate")
        reg.histogram("serving.verify_wall_us").observe(40, backend="gate")
        reg.counter("serving.worker_busy_us").inc(450, worker="w0")
        reg.counter("serving.worker_busy_us").inc(50, worker="w1")
        serving = attribute_serving(reg)
        assert serving["queue_wait_us"] == 400
        assert serving["execution_us"] == 500
        assert serving["verify_us"] == 40
        assert serving["total_us"] == 940
        assert serving["workers"] == {"w0": 450, "w1": 50}

    def test_empty_registry(self):
        serving = attribute_serving(MetricsRegistry())
        assert serving["total_us"] == 0
        assert serving["workers"] == {}
        assert serving["shards"] == {}
        assert serving["queue_wait_p50_us"] is None

    def test_per_shard_gauges_folded_by_shard(self):
        reg = MetricsRegistry()
        reg.gauge("serving.shard_busy_fraction").set(0.8, shard="0")
        reg.gauge("serving.shard_busy_fraction").set(0.4, shard="1")
        reg.gauge("serving.shard_queue_depth").set(3, shard="0")
        reg.gauge("serving.shard_cache_hit_rate").set(0.9, shard="1")
        serving = attribute_serving(reg)
        assert serving["shards"] == {
            "0": {"busy_fraction": 0.8, "queue_depth": 3},
            "1": {"busy_fraction": 0.4, "cache_hit_rate": 0.9},
        }

    def test_render_report_shows_shard_section(self):
        from repro.observability.profiler import render_report

        reg = MetricsRegistry()
        reg.gauge("serving.shard_busy_fraction").set(0.75, shard="0")
        reg.gauge("serving.shard_queue_depth").set(2, shard="0")
        reg.gauge("serving.shard_cache_hit_rate").set(0.5, shard="0")
        report = render_report(reg)
        assert "shards (modulus-homed data plane):" in report
        assert "shard0" in report and "75.0%" in report


class TestExportUtilizationGauges:
    def test_headline_gauges_are_single_series(self):
        reg = MetricsRegistry()
        occ = OccupancyRecorder()
        occ.sample("array", 0, 0b0001, 4)  # idle 0.75
        occ.sample("gate", 0, 0b0011, 4)  # idle 0.50
        for fill in (8, 8, 8):
            reg.histogram("hdl.lane_fill").observe(fill, lanes=64)
        export_utilization_gauges(reg, occ)
        # one unlabeled series -> check_requirements sums exactly one value
        snap = reg.snapshot()
        idle_rows = [g for g in snap["gauges"] if g["name"] == "hdl.idle_fraction"]
        assert len(idle_rows) == 1 and idle_rows[0]["labels"] == {}
        assert idle_rows[0]["value"] == 0.75  # array is the primary source
        assert (
            check_requirements(
                snap,
                [
                    "hdl.idle_fraction>=0.7",
                    "hdl.idle_fraction<=0.8",
                    "serving.lane_fill_p50>=8",
                ],
            )
            == []
        )
        by_source = {
            g["labels"]["source"]: g["value"]
            for g in snap["gauges"]
            if g["name"] == "hdl.occupancy_idle_fraction"
        }
        assert by_source == {"array": 0.75, "gate": 0.5}

    def test_gate_source_is_fallback_primary(self):
        reg = MetricsRegistry()
        occ = OccupancyRecorder()
        occ.sample("gate", 0, 0b0001, 4)
        export_utilization_gauges(reg, occ)
        rows = [g for g in reg.snapshot()["gauges"] if g["name"] == "hdl.idle_fraction"]
        assert rows and rows[0]["value"] == 0.75

    def test_no_data_exports_nothing(self):
        reg = MetricsRegistry()
        export_utilization_gauges(reg, OccupancyRecorder())
        assert "hdl.idle_fraction" not in reg
        assert "serving.lane_fill_p50" not in reg
        assert "chip.tile_busy_fraction" not in reg
        assert "chip.fifo_depth_p95" not in reg
        assert "chip.waves_in_flight" not in reg

    def test_chip_health_trio(self):
        reg = MetricsRegistry()
        occ = OccupancyRecorder()
        # chip.tiles: one busy bit per tile; tile0 busy 2/2, tile1 1/2.
        occ.sample("chip.tiles", 0, 0b11, 2)
        occ.sample("chip.tiles", 1, 0b01, 2)
        for depth in (0, 1, 1, 2):
            reg.histogram("chip.fifo_depth").observe(depth, tile="0", dir="in")
        for waves in (2, 4, 4, 2):
            reg.histogram("chip.waves").observe(waves)
        export_utilization_gauges(reg, occ)
        snap = reg.snapshot()
        gauges = {
            (g["name"], tuple(sorted(g["labels"].items()))): g["value"]
            for g in snap["gauges"]
        }
        assert gauges[("chip.tile_busy_fraction", ())] == 0.75
        assert gauges[("chip.tile_busy", (("tile", "0"),))] == 1.0
        assert gauges[("chip.tile_busy", (("tile", "1"),))] == 0.5
        assert gauges[("chip.waves_in_flight", ())] == 3.0
        assert ("chip.fifo_depth_p95", ()) in gauges
        # The CI gate shape: requirements over the exported gauges.
        assert (
            check_requirements(
                snap,
                ["chip.tile_busy_fraction>=0.5", "chip.waves_in_flight>=2"],
            )
            == []
        )


class TestRenderReport:
    def test_sections_appear_when_data_exists(self):
        reg = _cycles_registry()
        reg.histogram("hdl.lane_fill").observe(8, lanes=64)
        reg.counter("hdl.wasted_lane_cycles").inc(100)
        reg.histogram("serving.queue_wait_us").observe(10)
        reg.histogram("serving.request_wall_us").observe(90)
        occ = OccupancyRecorder()
        occ.sample("array", 0, 0b01, 2)
        report = render_report(reg, occ, l=64)
        assert "cycles by phase:" in report
        assert "occupancy by source:" in report
        assert "2i+j model" in report
        assert "lane fill" in report and "wasted_lane_cycles=100" in report
        assert "serving wall time:" in report
        assert "occupancy heatmap [array]" in report

    def test_empty_inputs_render_header_only(self):
        report = render_report(MetricsRegistry())
        assert report.startswith("=== utilization profile ===")
        assert "cycles by phase" not in report
        assert "chip health:" not in report

    def test_chip_health_section(self):
        reg = MetricsRegistry()
        occ = OccupancyRecorder()
        occ.sample("chip.tiles", 0, 0b11, 2)
        occ.sample("chip.tiles", 1, 0b01, 2)
        reg.histogram("chip.waves").observe(3)
        reg.histogram("chip.fifo_depth").observe(1, tile="0", dir="in")
        report = render_report(reg, occ, heatmap_source=None)
        assert "chip health:" in report
        assert "tiles=2" in report and "tile0=100.0%" in report
        assert "waves in flight" in report
        assert "fifo depth p95" in report
        assert "occupancy heatmap [chip.tiles]" in report
        assert "2 tiles" in report


class TestPrometheusExposition:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("serving.requests").inc(5, status="completed")
        hist = reg.histogram("serving.request_wall_us")
        for v in (10, 20, 4000):
            hist.observe(v, backend="gate")
        reg.gauge("hdl.idle_fraction").set(0.66)
        return reg

    def test_histogram_series_are_cumulative_buckets(self):
        text = self._registry().to_prometheus()
        lines = text.splitlines()
        buckets = [
            ln for ln in lines if ln.startswith("serving_request_wall_us_bucket")
        ]
        assert buckets, text
        assert any('le="+Inf"' in ln for ln in buckets)
        # cumulative: counts never decrease as le rises, +Inf == count
        counts = [float(ln.rsplit(" ", 1)[1]) for ln in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 3
        assert "serving_request_wall_us_sum" in text
        assert 'serving_request_wall_us_count{backend="gate"} 3' in text
        assert "serving_requests_total" in text

    def test_parse_round_trip(self):
        reg = self._registry()
        parsed = parse_prometheus_text(reg.to_prometheus())
        assert parsed["serving_requests_total"]["type"] == "counter"
        [(labels, value)] = parsed["serving_requests_total"]["samples"]
        assert labels == {"status": "completed"} and value == 5
        assert parsed["hdl_idle_fraction"]["samples"] == [({}, 0.66)]
        bucket = parsed["serving_request_wall_us_bucket"]
        assert bucket["type"] == "histogram"
        inf = [v for lb, v in bucket["samples"] if lb["le"] == "+Inf"]
        assert inf == [3]
        count = parsed["serving_request_wall_us_count"]["samples"]
        assert count == [({"backend": "gate"}, 3)]

    def test_parse_skips_garbage_lines(self):
        parsed = parse_prometheus_text("not a metric line\n# random comment\nx 1\n")
        assert parsed["x"]["samples"] == [({}, 1)]
        assert len(parsed) == 1

    def test_scrape_content_type_is_prometheus_0_0_4(self):
        from repro.serving import TelemetryServer

        with TelemetryServer(self._registry(), port=0) as srv:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{srv.port}/metrics"
            ) as resp:
                ctype = resp.headers["Content-Type"]
                body = resp.read().decode()
        assert ctype.startswith("text/plain; version=0.0.4")
        assert "serving_request_wall_us_bucket" in body
        # what the server serves parses back losslessly
        assert parse_prometheus_text(body)["serving_requests_total"]["samples"]
