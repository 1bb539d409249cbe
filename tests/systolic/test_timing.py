"""The paper's closed-form cycle formulas (Sections 4.4-4.5, Eq. 10)."""

import pytest

from repro.errors import ParameterError
from repro.systolic.timing import (
    average_exponentiation_cycles,
    exponentiation_cycle_bounds,
    exponentiation_cycles_measured,
    exponentiation_cycles_measured_model,
    exponentiation_cycles_paper,
    mmm_cycles,
    mmm_cycles_corrected,
    postprocessing_cycles,
    precomputation_cycles,
)


class TestMMMCycles:
    @pytest.mark.parametrize(
        "l,expect", [(32, 100), (64, 196), (128, 388), (1024, 3076)]
    )
    def test_paper_values(self, l, expect):
        """3l+4 — cross-checked against Table 2: T_MMM / Tp."""
        assert mmm_cycles(l) == expect

    def test_corrected_is_one_more(self):
        for l in (2, 32, 1024):
            assert mmm_cycles_corrected(l) == mmm_cycles(l) + 1

    def test_table2_consistency(self):
        """Table 2's T_MMM column equals (3l+4) x Tp within rounding."""
        from repro.fpga.calibration import PAPER_TABLE2

        for l, row in PAPER_TABLE2.items():
            assert row.t_mmm_us == pytest.approx(
                mmm_cycles(l) * row.tp_ns / 1000.0, rel=1e-3
            )


class TestPrePost:
    def test_pre_5l_plus_10(self):
        assert precomputation_cycles(1024) == 5130
        assert precomputation_cycles(32) == 170

    def test_pre_formula_shape(self):
        """2(2(l+2)+1) + l, as printed."""
        for l in (2, 7, 100):
            assert precomputation_cycles(l) == 2 * (2 * (l + 2) + 1) + l

    def test_post_l_plus_2(self):
        assert postprocessing_cycles(1024) == 1026


class TestEq10:
    @pytest.mark.parametrize("l", [2, 32, 128, 1024])
    def test_bounds_formulas(self, l):
        lo, hi = exponentiation_cycle_bounds(l)
        assert lo == 3 * l * l + 10 * l + 12
        assert hi == 6 * l * l + 14 * l + 12

    def test_bounds_are_attained_by_paper_accounting(self):
        """Single-one exponent hits the lower bound; all-ones the upper."""
        l = 64
        lo, hi = exponentiation_cycle_bounds(l)
        single = exponentiation_cycles_paper(l, 1 << l)  # l+1 bits, weight 1
        allones = exponentiation_cycles_paper(l, (1 << (l + 1)) - 1)
        assert single.total == lo
        assert allones.total == hi

    def test_average_is_midpoint(self):
        l = 1024
        lo, hi = exponentiation_cycle_bounds(l)
        assert average_exponentiation_cycles(l) == (lo + hi) / 2

    def test_table1_consistency(self):
        """Table 1's avg T_mod-exp equals the average formula x Tp within
        1% (the paper's own rounding/bookkeeping)."""
        from repro.fpga.calibration import PAPER_TABLE1

        for l, row in PAPER_TABLE1.items():
            model_ms = average_exponentiation_cycles(l) * row.tp_ns / 1e6
            assert model_ms == pytest.approx(row.avg_exp_ms, rel=0.03)


class TestConcreteExponent:
    def test_breakdown_components(self):
        b = exponentiation_cycles_paper(128, 0b1011)
        assert b.squares == 3 and b.multiplies == 2
        assert b.square_cycles == 3 * mmm_cycles(128)
        assert b.total == b.pre + b.square_cycles + b.multiply_cycles + b.post

    def test_measured_model_uses_full_mults_for_pre_post(self):
        b = exponentiation_cycles_measured_model(128, 0b1011)
        assert b.pre == mmm_cycles_corrected(128)
        assert b.post == mmm_cycles_corrected(128)

    def test_measured_model_paper_mode(self):
        b = exponentiation_cycles_measured_model(128, 3, mode="paper")
        assert b.pre == mmm_cycles(128)

    @pytest.mark.parametrize("mode", ["corrected", "paper"])
    @pytest.mark.parametrize("l", [2, 8, 129])
    def test_measured_total_is_the_breakdown_total(self, mode, l):
        for exponent in (1, 2, 3, 0b1011, 65537, (1 << 64) - 1, 0xBEEF << 40):
            model = exponentiation_cycles_measured_model(l, exponent, mode=mode)
            assert exponentiation_cycles_measured(l, exponent, mode=mode) == model.total
        per_op = mmm_cycles_corrected(l) if mode == "corrected" else mmm_cycles(l)
        assert exponentiation_cycles_measured(l, 65537, mode=mode) == 19 * per_op

    def test_measured_total_rejects_what_the_model_rejects(self):
        for bad_l, bad_e in ((8, 0), (8, -3), (0, 5)):
            with pytest.raises(ParameterError):
                exponentiation_cycles_measured(bad_l, bad_e)
            with pytest.raises(ParameterError):
                exponentiation_cycles_measured_model(bad_l, bad_e)

    def test_validation(self):
        with pytest.raises(ParameterError):
            mmm_cycles(0)
        with pytest.raises(ParameterError):
            exponentiation_cycles_paper(8, 0)
