"""Tests for the Table 1 / Table 2 regeneration."""

import pytest

from repro.fpga.calibration import PAPER_TABLE1, PAPER_TABLE2
from repro.fpga.report import implementation_report, table1_rows, table2_rows


class TestTable2:
    def test_rows_cover_paper_bit_lengths(self):
        rows = table2_rows(bit_lengths=(32, 64))
        assert [r.l for r in rows] == [32, 64]
        for r in rows:
            assert r.paper_slices == PAPER_TABLE2[r.l].slices

    def test_slices_within_25_percent(self):
        for r in table2_rows(bit_lengths=(32, 64, 128)):
            assert r.slices == pytest.approx(r.paper_slices, rel=0.25)

    def test_tp_within_10_percent(self):
        for r in table2_rows(bit_lengths=(32, 128)):
            assert r.tp_ns == pytest.approx(r.paper_tp_ns, rel=0.10)

    def test_t_mmm_is_cycles_times_tp(self):
        r = implementation_report(32)
        assert r.t_mmm_us == pytest.approx(r.mmm_cycles * r.tp_ns / 1e3)
        assert r.mmm_cycles == 100  # 3*32+4 in paper mode

    def test_ta_product(self):
        r = implementation_report(32)
        assert r.ta_slice_ns == pytest.approx(r.slices * r.tp_ns)

    def test_corrected_mode_costs_one_cycle(self):
        rp = implementation_report(32, mode="paper")
        rc = implementation_report(32, mode="corrected")
        assert rc.mmm_cycles == rp.mmm_cycles + 1
        assert rc.slices >= rp.slices

    def test_cache_returns_same_object(self):
        assert implementation_report(32) is implementation_report(32)


class TestTable1:
    def test_rows(self):
        rows = table1_rows(bit_lengths=(32, 128))
        for r in rows:
            assert r.paper_avg_exp_ms == PAPER_TABLE1[r.l].avg_exp_ms

    def test_avg_exp_within_10_percent(self):
        for r in table1_rows(bit_lengths=(32, 128)):
            assert r.avg_exp_ms == pytest.approx(r.paper_avg_exp_ms, rel=0.10)

    def test_avg_exp_formula(self):
        r = implementation_report(32)
        assert r.avg_exp_ms == pytest.approx(r.avg_exp_cycles * r.tp_ns / 1e6)


class TestCalibrationData:
    def test_paper_table2_internal_consistency(self):
        """TA = S x Tp in the paper's own rows (sanity on transcription)."""
        for row in PAPER_TABLE2.values():
            assert row.ta_slice_ns == pytest.approx(row.slices * row.tp_ns, rel=1e-3)

    def test_table1_table2_tp_agree(self):
        for l, r1 in PAPER_TABLE1.items():
            if l in PAPER_TABLE2:
                assert r1.tp_ns == PAPER_TABLE2[l].tp_ns
