"""``repro profile`` and ``repro top``: the CLI face of the profiler.

``profile`` runs a real (small) workload, so these tests keep ``--l``
low and the serving stage short; ``top`` is tested frame-by-frame
against a live :class:`TelemetryServer` and via its pure
``_render_top_frame`` renderer.
"""

import io
import json

from repro.cli import _render_top_frame, main
from repro.observability import load_snapshot, check_requirements, validate_chrome_trace


def _cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestProfileCommand:
    def test_occupancy_stage_only(self):
        code, out = _cli("profile", "--l", "8", "--requests", "0")
        assert code == 0
        assert "=== utilization profile ===" in out
        assert "cycles by phase:" in out
        assert "2i+j model" in out
        assert "occupancy heatmap [array]" in out
        # no serving stage -> no serving section
        assert "serving wall time:" not in out

    def test_analytic_delta_is_zero_for_rtl_array(self):
        code, out = _cli("profile", "--l", "8", "--requests", "0")
        assert code == 0
        array_line = next(
            ln for ln in out.splitlines() if ln.strip().startswith("array")
        )
        assert "delta +0.00%" in array_line

    def test_serving_stage_fills_lane_and_queue_sections(self):
        code, out = _cli("profile", "--l", "8", "--requests", "12")
        assert code == 0
        assert "lane fill" in out
        assert "serving wall time:" in out
        assert "busy by worker:" in out
        # 12 requests, 3 moduli of 10 bits x 2 exponents: the gate backend
        # batches by width, so each exponent's 6 requests share a sweep
        # across all 3 moduli -> fill 6
        assert "p50=6" in out

    def test_artifacts_and_floor_gating(self, tmp_path):
        metrics = str(tmp_path / "m.json")
        trace = str(tmp_path / "t.json")
        report = str(tmp_path / "report.txt")
        csv = str(tmp_path / "cells.csv")
        code, out = _cli(
            "profile", "--l", "8", "--requests", "0",
            "--metrics-out", metrics, "--trace", trace,
            "--out", report, "--csv", csv,
        )
        assert code == 0
        assert open(report).read().startswith("=== utilization profile ===")
        assert open(csv).read().startswith("cycle,")
        assert validate_chrome_trace(json.load(open(trace))) == []
        snap = load_snapshot(metrics)
        # the gauges the CI floors gate, present and single-valued
        assert check_requirements(
            snap, ["hdl.idle_fraction>=0.6", "hdl.idle_fraction<=0.7"]
        ) == []

    def test_deterministic_under_fixed_seed(self):
        _, a = _cli("profile", "--l", "8", "--requests", "0", "--seed", "5")
        _, b = _cli("profile", "--l", "8", "--requests", "0", "--seed", "5")
        assert a == b


class TestTopFrame:
    EXPO = "\n".join(
        [
            "# TYPE serving_requests_total counter",
            'serving_requests_total{status="completed"} 40',
            'serving_requests_total{status="rejected"} 2',
            "# TYPE hdl_lane_fill histogram",
            'hdl_lane_fill_bucket{lanes="64",le="8"} 4',
            'hdl_lane_fill_bucket{lanes="64",le="+Inf"} 4',
            'hdl_lane_fill_sum{lanes="64"} 32',
            'hdl_lane_fill_count{lanes="64"} 4',
            "# TYPE hdl_idle_fraction gauge",
            "hdl_idle_fraction 0.663",
            "# TYPE serving_worker_busy_us_total counter",
            'serving_worker_busy_us_total{worker="w0"} 5000',
            "",
        ]
    )

    def test_renders_sections_from_exposition(self):
        frame = _render_top_frame("http://x/metrics", self.EXPO)
        assert "completed=40" in frame
        assert "rejected=2" in frame
        assert "mean=8.0" in frame
        assert "66.3%" in frame
        assert "w0=5ms" in frame

    def test_empty_exposition_renders_dashes(self):
        frame = _render_top_frame("http://x/metrics", "")
        assert "completed=0" in frame
        assert "mean=-" in frame


class TestTopCommand:
    def _server(self):
        from repro.observability import MetricsRegistry
        from repro.serving import TelemetryServer

        reg = MetricsRegistry()
        reg.counter("serving.requests").inc(7, status="completed", backend="gate")
        reg.gauge("hdl.idle_fraction").set(0.5)
        return TelemetryServer(reg, port=0)

    def test_once_against_live_endpoint(self):
        with self._server() as srv:
            code, out = _cli("top", f"http://127.0.0.1:{srv.port}", "--once")
        assert code == 0
        assert "repro top" in out
        assert "completed=7" in out

    def test_url_may_point_at_metrics_directly(self):
        with self._server() as srv:
            code, out = _cli(
                "top", f"http://127.0.0.1:{srv.port}/metrics", "--once"
            )
        assert code == 0
        assert "completed=7" in out

    def test_unreachable_endpoint_is_one_line_error(self):
        code, out = _cli("top", "http://127.0.0.1:1/metrics", "--once")
        assert code == 1
        assert "Traceback" not in out
        assert "repro top:" in out
