"""CLI observability flags, including the end-to-end acceptance check:

``python -m repro exponentiate … --trace out.json`` writes a valid
Chrome trace-event JSON whose span cycle totals agree with the
exponentiator's measured cycle counters.
"""

import io
import json
import os
import re
import subprocess
import sys

from repro.cli import main
from repro.observability import validate_chrome_trace

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src")


def _cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestObserveCommand:
    def test_prints_snapshot_with_state_counters(self):
        code, out = _cli("observe", "--l", "8", "--seed", "1")
        assert code == 0
        assert "controller.state_cycles{state=MUL1}" in out
        assert "exponentiator.operations{kind=square}" in out

    def test_json_snapshot_and_metrics_out(self, tmp_path):
        path = str(tmp_path / "m.json")
        code, out = _cli("observe", "--l", "8", "--json", "--metrics-out", path)
        assert code == 0
        doc = json.loads(open(path).read())
        names = {row["name"] for row in doc["counters"]}
        assert "mmmc.multiplications" in names
        # stdout carries the same snapshot as JSON
        assert '"mmmc.multiplications"' in out

    def test_gate_flag_populates_hdl_metrics(self):
        """The netlist engine runs the exponentiation through the gate
        netlist, so the snapshot carries the ``hdl.*`` series."""
        code, out = _cli("observe", "--l", "6", "--engine", "netlist")
        assert code == 0
        assert "hdl.gate_evals" in out
        assert "hdl.cycles" in out

    def test_observe_can_trace(self, tmp_path):
        path = str(tmp_path / "t.json")
        code, out = _cli("observe", "--l", "8", "--trace", path)
        assert code == 0
        doc = json.loads(open(path).read())
        assert validate_chrome_trace(doc) == []


class TestMultiplyFlags:
    def test_multiply_trace_and_metrics(self, tmp_path):
        path = str(tmp_path / "t.json")
        code, out = _cli(
            "multiply", "300", "150", "197",
            "--engine", "behavioral", "--arch", "paper",
            "--trace", path, "--metrics",
        )
        assert code == 0
        assert "controller.state_cycles" in out
        doc = json.loads(open(path).read())
        assert validate_chrome_trace(doc) == []
        (mmm,) = [e for e in doc["traceEvents"] if e.get("name") == "mmm"]
        assert mmm["dur"] == 3 * 8 + 4

    def test_golden_model_yields_empty_metrics(self):
        code, out = _cli(
            "multiply", "300", "150", "197", "--engine", "golden", "--metrics"
        )
        assert code == 0
        assert "(no metrics recorded)" in out


class TestExponentiateTraceEndToEnd:
    def _check_trace_against_cycles(self, trace_doc, cycles):
        assert validate_chrome_trace(trace_doc) == []
        spans = [e for e in trace_doc["traceEvents"] if e["ph"] == "X"]
        exp_total = sum(e["dur"] for e in spans if e["name"] == "exponentiate")
        mmm_total = sum(e["dur"] for e in spans if e["name"] == "mmm")
        op_total = sum(
            e["dur"]
            for e in spans
            if e["name"] in ("pre", "square", "multiply", "post")
        )
        assert exp_total == cycles
        assert mmm_total == cycles
        assert op_total == cycles

    def test_in_process(self, tmp_path):
        path = str(tmp_path / "t.json")
        code, out = _cli(
            "exponentiate", "100", "11", "197",
            "--engine", "behavioral", "--trace", path, "--metrics",
        )
        assert code == 0
        cycles = int(re.search(r"(\d+) cycles", out).group(1))
        self._check_trace_against_cycles(json.loads(open(path).read()), cycles)

    def test_subprocess_python_m_repro(self, tmp_path):
        """The acceptance criterion, verbatim: ``python -m repro …``."""
        path = str(tmp_path / "out.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "exponentiate",
                "100", "43", "197", "--engine", "behavioral", "--trace", path,
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        cycles = int(re.search(r"(\d+) cycles", proc.stdout).group(1))
        # exponent 43 = 0b101011: 5 squares + 3 multiplies + pre + post
        # at 3l+5 = 29 cycles each (corrected array).
        assert cycles == 10 * 29
        self._check_trace_against_cycles(json.loads(open(path).read()), cycles)


class TestMetricsFormatFlag:
    def test_observe_prom_format_prints_exposition_text(self):
        code, out = _cli("observe", "--l", "8", "--format", "prom")
        assert code == 0
        assert "# TYPE controller_state_cycles_total counter" in out
        assert 'controller_state_cycles_total{state="MUL1"}' in out

    def test_observe_metrics_out_prom(self, tmp_path):
        path = str(tmp_path / "m.prom")
        code, out = _cli(
            "observe", "--l", "8", "--format", "prom", "--metrics-out", path
        )
        assert code == 0
        text = open(path).read()
        assert "exponentiator_operations_total" in text
        assert "(prom)" in out

    def test_exponentiate_metrics_out_respects_format(self, tmp_path):
        prom = str(tmp_path / "m.prom")
        code, _ = _cli(
            "exponentiate", "5", "11", "197",
            "--metrics-out", prom, "--format", "prom",
        )
        assert code == 0
        assert "# TYPE" in open(prom).read()
        jsn = str(tmp_path / "m.json")
        code, _ = _cli("exponentiate", "5", "11", "197", "--metrics-out", jsn)
        assert code == 0
        assert json.load(open(jsn))["counters"]


class TestObsDiffCommand:
    def _write_snapshot(self, tmp_path, name, count):
        from repro.observability import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("serving.requests").inc(count, backend="integer")
        path = str(tmp_path / name)
        reg.write_json(path)
        return path

    def test_identical_snapshots_exit_zero(self, tmp_path):
        base = self._write_snapshot(tmp_path, "base.json", 10)
        code, out = _cli("obs", "diff", base, "--baseline", base)
        assert code == 0
        assert "OK" in out

    def test_drift_beyond_tolerance_exits_nonzero(self, tmp_path):
        base = self._write_snapshot(tmp_path, "base.json", 10)
        cur = self._write_snapshot(tmp_path, "cur.json", 30)
        code, out = _cli(
            "obs", "diff", cur, "--baseline", base, "--tolerance", "0.15"
        )
        assert code == 1
        assert "DRIFT" in out and "FAIL" in out

    def test_ignore_glob_suppresses_drift(self, tmp_path):
        base = self._write_snapshot(tmp_path, "base.json", 10)
        cur = self._write_snapshot(tmp_path, "cur.json", 30)
        code, out = _cli(
            "obs", "diff", cur, "--baseline", base, "--ignore", "serving.*"
        )
        assert code == 0

    def test_missing_baseline_file_exits_two(self, tmp_path):
        cur = self._write_snapshot(tmp_path, "cur.json", 10)
        code, out = _cli(
            "obs", "diff", cur, "--baseline", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "cannot read baseline" in out

    def test_corrupt_baseline_is_one_line_no_traceback(self, tmp_path):
        cur = self._write_snapshot(tmp_path, "cur.json", 10)
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        code, out = _cli("obs", "diff", cur, "--baseline", str(bad))
        assert code == 2
        assert "cannot read baseline" in out
        assert "Traceback" not in out
        assert len(out.strip().splitlines()) == 1

    def test_corrupt_current_snapshot_exits_two(self, tmp_path):
        base = self._write_snapshot(tmp_path, "base.json", 10)
        bad = tmp_path / "corrupt.json"
        bad.write_text('["truncated"')
        code, out = _cli("obs", "diff", str(bad), "--baseline", base)
        assert code == 2
        assert "cannot read current snapshot" in out
        assert "Traceback" not in out

    def test_corrupt_baseline_in_subprocess_has_no_traceback(self, tmp_path):
        # End-to-end: the interpreter must exit 2 cleanly, not crash.
        cur = self._write_snapshot(tmp_path, "cur.json", 10)
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "obs", "diff", cur,
             "--baseline", str(bad)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr + proc.stdout

    def test_committed_baseline_matches_itself(self):
        baseline = os.path.join(REPO_ROOT, "benchmarks", "baselines", "serving.json")
        code, out = _cli(
            "obs", "diff", baseline, "--baseline", baseline, "--tolerance", "0"
        )
        assert code == 0, out
