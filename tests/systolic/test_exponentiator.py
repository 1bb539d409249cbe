"""Tests for the modular exponentiator (Section 4.5)."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SimulationError
from repro.montgomery.exponent import montgomery_modexp
from repro.montgomery.params import MontgomeryContext
from repro.observability import MetricsRegistry, SpanTracer, observe
from repro.serving.backends import IntegerBackend
from repro.serving.request import ModExpRequest
from repro.systolic.exponentiator import ModularExponentiator
from repro.systolic.mmmc import MMMC
from repro.systolic.timing import (
    exponentiation_cycle_bounds,
    exponentiation_cycles_measured_model,
)


class TestCorrectness:
    def test_rtl_small(self):
        ctx = MontgomeryContext(197)
        exp = ModularExponentiator(ctx, engine="behavioral")
        run = exp.exponentiate(55, 123)
        assert run.result == pow(55, 123, 197)

    @given(st.integers(0, 1 << 48), st.integers(1, 1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_golden_engine_matches_pow(self, m_raw, e):
        n = (1 << 47) | 0x2B  # fixed 48-bit odd modulus
        ctx = MontgomeryContext(n)
        exp = ModularExponentiator(ctx, engine="golden")
        m = m_raw % n
        assert exp.exponentiate(m, e).result == pow(m, e, n)

    def test_rtl_and_golden_agree_in_cycles_and_value(self):
        ctx = MontgomeryContext(241)
        r1 = ModularExponentiator(ctx, engine="behavioral").exponentiate(99, 0b101101)
        r2 = ModularExponentiator(ctx, engine="golden").exponentiate(99, 0b101101)
        assert r1.result == r2.result
        assert r1.cycles == r2.cycles, "golden accounting must equal measured RTL"

    def test_paper_mode_engine(self):
        # Small modulus where the printed array is safe.
        ctx = MontgomeryContext(139)
        exp = ModularExponentiator(ctx, engine="behavioral", mode="paper")
        run = exp.exponentiate(100, 19)
        assert run.result == pow(100, 19, 139)


class _RecordingMMMC:
    """The behavioral MMMC, logging each product's operands and result;
    ``extra_cycles`` skews the reported cycle count."""

    def __init__(self, l, extra_cycles=0):
        self.inner = MMMC(l)
        self.extra_cycles = extra_cycles
        self.products = []

    def multiply(self, x, y, n):
        rec = self.inner.multiply(x, y, n)
        self.products.append((x, y, rec.result))
        return dataclasses.replace(rec, cycles=rec.cycles + self.extra_cycles)


class TestEveryIntermediateProduct:
    @given(
        st.integers(2, 16).flatmap(
            lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1).map(
                lambda n: n | 1
            )
        ),
        st.integers(0),
        st.integers(1, 1 << 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_golden_trace_equals_rtl_run(self, n, m_raw, e):
        """The closed-form products of montgomery_modexp equal the RTL's,
        operation by operation, not only in the final value."""
        ctx = MontgomeryContext(n)
        m = m_raw % n
        value, trace = montgomery_modexp(ctx, m, e)
        rtl = _RecordingMMMC(ctx.l)
        run = ModularExponentiator(ctx, engine="behavioral", multiplier=rtl).exponentiate(m, e)
        assert [op.kind for op in trace.operations] == [k for k, _ in run.operations]
        assert [(op.x, op.y, op.result) for op in trace.operations] == rtl.products
        assert run.result == value == pow(m, e, n)


class TestCycleAccounting:
    def test_matches_closed_form(self):
        ctx = MontgomeryContext(197)
        e = 0xB5
        run = ModularExponentiator(ctx, engine="golden").exponentiate(12, e)
        assert run.cycles == exponentiation_cycles_measured_model(ctx.l, e).total

    def test_within_eq10_bounds_modulo_model_delta(self):
        """Our measured cycles fall inside Eq. (10) once the known
        accounting deltas are added: the paper's pre/post differ from a
        full multiplication, and the corrected array costs +1/multiply."""
        ctx = MontgomeryContext((1 << 31) | 11)
        l = ctx.l
        e = (1 << l) - 1  # worst case: all ones, l bits
        run = ModularExponentiator(ctx, engine="golden").exponentiate(3, e)
        lo, hi = exponentiation_cycle_bounds(l)
        ops = 2 * l + 1  # pre + (l-1 squares + l-1 mults... ) bounded above
        assert run.cycles <= hi + ops  # +1 cycle per op vs the paper count
        assert run.cycles >= lo

    def test_operation_log(self):
        ctx = MontgomeryContext(197)
        run = ModularExponentiator(ctx, engine="golden").exponentiate(5, 0b1001)
        kinds = [k for k, _ in run.operations]
        assert kinds == ["pre", "square", "square", "square", "multiply", "post"]
        assert run.num_multiplications == 6

    def test_cumulative_cycles(self):
        ctx = MontgomeryContext(197)
        exp = ModularExponentiator(ctx, engine="golden")
        c1 = exp.exponentiate(5, 3).cycles
        c2 = exp.exponentiate(6, 7).cycles
        assert exp.cycles == c1 + c2


class TestWindowedThroughEngine:
    def test_matches_binary_result(self):
        ctx = MontgomeryContext(197)
        exp = ModularExponentiator(ctx, engine="behavioral")
        e = 0xBEEF
        assert (
            exp.exponentiate_windowed(55, e, window=3).result
            == exp.exponentiate(55, e).result
            == pow(55, e, 197)
        )

    def test_saves_cycles_on_dense_exponents(self):
        ctx = MontgomeryContext(241)
        exp = ModularExponentiator(ctx, engine="golden")
        e = (1 << 48) - 1
        win = exp.exponentiate_windowed(5, e, window=4)
        binr = exp.exponentiate(5, e)
        assert win.result == binr.result
        assert win.cycles < binr.cycles

    def test_methods(self):
        ctx = MontgomeryContext(197)
        exp = ModularExponentiator(ctx, engine="golden")
        for method in ("binary", "mary", "sliding"):
            assert exp.exponentiate_windowed(7, 1234, method=method).result == pow(
                7, 1234, 197
            )
        with pytest.raises(ParameterError):
            exp.exponentiate_windowed(7, 3, method="psychic")

    @pytest.mark.parametrize("method", ["binary", "mary", "sliding"])
    def test_wrong_per_op_cost_trips_the_check(self, method):
        ctx = MontgomeryContext(197)
        skewed = _RecordingMMMC(ctx.l, extra_cycles=1)
        exp = ModularExponentiator(ctx, engine="behavioral", multiplier=skewed)
        with pytest.raises(AssertionError, match="cost model says"):
            exp.exponentiate_windowed(7, 0xBEEF, window=3, method=method)

    def test_cycles_accounted_per_pass(self):
        from repro.systolic.timing import mmm_cycles_corrected

        ctx = MontgomeryContext(197)
        exp = ModularExponentiator(ctx, engine="golden")
        run = exp.exponentiate_windowed(7, 0xFF, window=2)
        assert run.cycles == run.num_multiplications * mmm_cycles_corrected(ctx.l)


class TestValidation:
    def test_bad_engine(self):
        with pytest.raises(ParameterError):
            ModularExponentiator(MontgomeryContext(11), engine="fpga")

    def test_bad_message(self):
        exp = ModularExponentiator(MontgomeryContext(11), engine="golden")
        with pytest.raises(ParameterError):
            exp.exponentiate(11, 3)

    def test_bad_exponent(self):
        exp = ModularExponentiator(MontgomeryContext(11), engine="golden")
        with pytest.raises(ParameterError):
            exp.exponentiate(3, 0)


def _walter_breaking_context(n=251):
    """``test_walter_bound_violation_is_caught``'s inconsistent context:
    R = 2^(l+1) < 4N, so products can leave [0, 2N)."""
    ctx = MontgomeryContext(n)
    r_exp = n.bit_length() + 1
    for name, value in (
        ("r_exponent", r_exp),
        ("R", 1 << r_exp),
        ("r_mask", (1 << r_exp) - 1),
        ("n_neg_inv_r", (-pow(n, -1, 1 << r_exp)) % (1 << r_exp)),
    ):
        object.__setattr__(ctx, name, value)
    return ctx


class TestGoldenChainGuards:
    """The golden chain checks its entry operands once and Walter's bound
    on every product; a broken context or operand never returns a value."""

    def test_walter_violation_mid_chain_is_caught(self):
        # The entry operands pass; a later square leaves [0, 2N).
        ctx = _walter_breaking_context()
        with pytest.raises(SimulationError, match="Walter bound violated"):
            ModularExponentiator(ctx, engine="golden").exponentiate(2, 65537)

    def test_walter_violation_through_the_integer_backend(self):
        ctx = _walter_breaking_context()
        request = ModExpRequest(2, 65537, 251)
        with pytest.raises(SimulationError, match="Walter bound violated"):
            IntegerBackend().execute(ctx, request)

    @pytest.mark.parametrize("base", [-1, 251, 502])
    def test_base_outside_n_keeps_its_message(self, base):
        exp = ModularExponentiator(MontgomeryContext(251), engine="golden")
        message = f"message must be in [0, N); got {base} for N=251"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            exp.exponentiate(base, 3)

    @pytest.mark.parametrize("r2", [502, 503, 10**6])
    def test_corrupt_r2_fails_the_entry_check_before_any_product(self, r2):
        ctx = MontgomeryContext(251)
        object.__setattr__(ctx, "r2_mod_n", r2)
        exp = ModularExponentiator(ctx, engine="golden")
        registry, tracer = MetricsRegistry(), SpanTracer()
        message = f"y={r2} outside Algorithm 2 window [0, 502)"
        with observe(metrics=registry, tracer=tracer):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                exp.exponentiate(5, 65537)
        assert tracer.open_spans == 0 and tracer.spans() == []
        assert registry.counter("exponentiator.operations").total() == 0
