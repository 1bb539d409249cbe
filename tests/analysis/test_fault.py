"""Tests for the fault-injection harness — including the shadow-lattice
prediction that validates the RTL microarchitecture."""

import pytest

from repro.analysis.fault import (
    FaultSite,
    campaign_summary,
    fault_campaign,
    inject_fault,
)
from repro.errors import ParameterError


L, N, X, Y = 8, 197, 300, 150


class TestInjection:
    def test_result_register_fault_always_corrupts_if_before_out(self):
        """Flipping an already-captured result bit corrupts the output."""
        out = inject_fault(L, X, Y, N, FaultSite(cycle=3 * L + 2, register="result", index=0))
        assert out.corrupted
        assert out.observed == out.fault_free ^ 1

    def test_late_x_shift_fault_harmless(self):
        """The X register is exhausted late in the run: flipping its MSB
        after every bit has been consumed cannot matter."""
        out = inject_fault(
            L, X, Y, N, FaultSite(cycle=3 * L, register="x_shift", index=L)
        )
        assert not out.corrupted

    def test_early_x_lsb_fault_corrupts(self):
        """Flipping X(0) before it is consumed changes the product
        (x=300 has its bit 1 set: flip makes a different multiplier)."""
        out = inject_fault(L, X, Y, N, FaultSite(cycle=0, register="x_shift", index=1))
        assert out.corrupted

    def test_validation(self):
        with pytest.raises(ParameterError):
            inject_fault(L, X, Y, N, FaultSite(cycle=999, register="t", index=0))
        with pytest.raises(ParameterError):
            inject_fault(L, X, Y, N, FaultSite(cycle=0, register="t", index=99))
        with pytest.raises(ParameterError):
            inject_fault(L, X, Y, N, FaultSite(cycle=0, register="flux", index=0))


class TestShadowLatticePrediction:
    """The microarchitectural theory: T(j) captured at the end of an
    off-parity cycle holds a shadow value that no productive computation
    ever reads — flipping it must be invisible.  Flipping the same
    register at on-parity ends hits a live value."""

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_shadow_flips_invisible_live_flips_corrupt(self, j):
        shadow = live = 0
        shadow_n = live_n = 0
        # T(j) productive captures happen at ends of cycles with parity j;
        # mid-run flips (away from start-up and drain edge cases).
        for tau in range(6, 2 * L):
            out = inject_fault(L, X, Y, N, FaultSite(cycle=tau, register="t", index=j))
            if tau % 2 == j % 2:
                live += out.corrupted
                live_n += 1
            else:
                shadow += out.corrupted
                shadow_n += 1
        assert shadow == 0, "shadow-lattice flips must never corrupt"
        assert live == live_n, "live-value flips in mid-run must corrupt"


class TestCampaign:
    def test_summary_structure(self):
        outs = fault_campaign(L, X, Y, N, samples=60, seed=2)
        s = campaign_summary(outs)
        assert "ALL" in s
        assert s["ALL"]["injections"] == 60
        assert 0.0 <= s["ALL"]["corruption_rate"] <= 1.0

    def test_overall_rate_near_half(self):
        """The 2-slow array: roughly half of random single-bit flips land
        in the shadow lattice (or after last use) and are absorbed."""
        outs = fault_campaign(L, X, Y, N, samples=400, seed=3)
        rate = campaign_summary(outs)["ALL"]["corruption_rate"]
        assert 0.3 <= rate <= 0.7

    def test_explicit_sites(self):
        sites = [FaultSite(cycle=0, register="t", index=1)]
        outs = fault_campaign(L, X, Y, N, sites=sites)
        assert len(outs) == 1 and outs[0].site == sites[0]

    def test_empty_summary_rejected(self):
        with pytest.raises(ParameterError):
            campaign_summary([])

    def test_deterministic_given_seed(self):
        a = fault_campaign(L, X, Y, N, samples=30, seed=5)
        b = fault_campaign(L, X, Y, N, samples=30, seed=5)
        assert [(o.site, o.corrupted) for o in a] == [(o.site, o.corrupted) for o in b]


class TestGateLevelEngines:
    """The same FaultSite addressing through the real netlist: the
    interpreted and compiled engines must agree bit-for-bit with each
    other on every injected fault's outcome."""

    def test_gate_campaign_runs_and_reuses_one_netlist(self):
        outs = fault_campaign(
            L, X, Y, N, samples=20, seed=4, engine="netlist-interpreted"
        )
        assert len(outs) == 20
        s = campaign_summary(outs)
        assert 0.0 <= s["ALL"]["corruption_rate"] <= 1.0

    def test_compiled_and_interpreted_agree_exactly(self):
        a = fault_campaign(
            L, X, Y, N, samples=25, seed=6, engine="netlist-interpreted"
        )
        b = fault_campaign(L, X, Y, N, samples=25, seed=6, engine="netlist")
        assert [(o.site, o.observed, o.detected) for o in a] == [
            (o.site, o.observed, o.detected) for o in b
        ]

    def test_gate_fault_corrupts_known_live_site(self):
        out = inject_fault(
            L, X, Y, N, FaultSite(cycle=3 * L + 3, register="result", index=0),
            engine="netlist-interpreted",
        )
        assert out.corrupted

    def test_gate_instance_recovers_after_fault(self):
        """An injected fault must not contaminate later multiplications
        on the same (reused) netlist instance."""
        from repro.systolic.mmmc_netlist import GateLevelMMMC

        mmmc = GateLevelMMMC(L, mode="corrected", simulator="interpreted")
        site = FaultSite(cycle=5, register="t", index=2)
        faulty = inject_fault(L, X, Y, N, site, engine="netlist-interpreted", _mmmc=mmmc)
        clean = mmmc.multiply(X, Y, N).result
        assert clean == faulty.fault_free

    def test_gate_cycle_window_validated(self):
        with pytest.raises(ParameterError):
            inject_fault(
                L, X, Y, N, FaultSite(cycle=3 * L + 6, register="t", index=0),
                engine="netlist-interpreted",
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError):
            inject_fault(
                L, X, Y, N, FaultSite(cycle=0, register="t", index=0),
                engine="fpga",
            )
        with pytest.raises(ParameterError):
            fault_campaign(L, X, Y, N, samples=1, engine="fpga")

    def test_rtl_and_gate_rates_comparable(self):
        """Both substrates model the same microarchitecture; their random
        corruption rates land in the same broad band."""
        rtl = campaign_summary(fault_campaign(L, X, Y, N, samples=120, seed=8))
        gate = campaign_summary(
            fault_campaign(L, X, Y, N, samples=120, seed=8, engine="netlist-interpreted")
        )
        assert abs(rtl["ALL"]["corruption_rate"] - gate["ALL"]["corruption_rate"]) < 0.25
