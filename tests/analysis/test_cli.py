"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestMultiply:
    def test_mmmc_model(self):
        code, text = run_cli("multiply", "300", "150", "197")
        assert code == 0
        assert "golden agrees: True" in text
        assert "cycles: 29" in text

    def test_gate_model(self):
        for engine in ("netlist", "netlist-interpreted"):
            code, text = run_cli("multiply", "3", "5", "11", "--engine", engine)
            assert code == 0
            assert "golden agrees: True" in text

    def test_golden_model_no_cycles(self):
        code, text = run_cli("multiply", "3", "5", "11", "--engine", "golden")
        assert code == 0
        assert "cycles" not in text

    def test_hex_operands(self):
        code, text = run_cli("multiply", "0x12C", "0x96", "0xC5")
        assert code == 0

    def test_paper_arch(self):
        code, text = run_cli(
            "multiply", "10", "20", "139", "--engine", "behavioral", "--arch", "paper"
        )
        assert code == 0
        assert "cycles: 28" in text  # 3l+4 for l=8


class TestExponentiate:
    def test_golden(self):
        code, text = run_cli("exponentiate", "55", "123", "197")
        assert code == 0
        assert f"= {pow(55, 123, 197)}" in text

    def test_rtl(self):
        code, text = run_cli("exponentiate", "7", "5", "197", "--engine", "behavioral")
        assert code == 0
        assert "multiplications" in text


class TestReports:
    def test_experiments(self):
        code, text = run_cli("experiments")
        assert code == 0
        assert "table2" in text and "overflow-finding" in text

    def test_census(self):
        code, text = run_cli("census", "8")
        assert code == 0
        assert "slices" in text and "LUT depth" in text

    def test_fault(self):
        code, text = run_cli("fault", "--l", "8", "--samples", "30")
        assert code == 0
        assert "corruption rate" in text
        assert "ALL" in text


class TestTables:
    def test_tables_command(self):
        code, text = run_cli("tables")
        assert code == 0
        assert "Table 2" in text and "Table 1" in text
        # the l = 1024 row with the paper's slice count alongside ours
        assert "5706" in text


class TestReportAndVerilog:
    def test_report_to_stdout(self, tmp_path):
        out_path = tmp_path / "r.md"
        code, text = run_cli("report", "--out", str(out_path), "--seed", "1")
        assert code == 0
        assert "Live reproduction report" in text
        assert "Table 2" in text
        assert out_path.exists()
        assert "3l+4" in out_path.read_text()

    def test_verilog_export(self, tmp_path):
        out_path = tmp_path / "m.v"
        code, text = run_cli("verilog", "6", "--out", str(out_path))
        assert code == 0
        assert "co-simulation checked" in text
        content = out_path.read_text()
        assert content.startswith("// generated")
        assert "endmodule" in content


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
