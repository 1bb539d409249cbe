"""Tests for Algorithm 3 and the Montgomery exponentiation pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.montgomery.exponent import (
    chain_kinds,
    modexp_chain,
    modexp_square_multiply,
    montgomery_modexp,
    montgomery_modexp_rtl,
    run_chain,
)
from repro.montgomery.params import MontgomeryContext
from repro.montgomery.windowed import binary_schedule

from tests.conftest import odd_modulus


class TestSquareMultiply:
    @given(
        st.integers(0, 1 << 64),
        st.integers(0, 1 << 20),
        st.integers(2, 1 << 48),
    )
    @settings(max_examples=200)
    def test_matches_builtin_pow(self, base, exp, mod):
        assert modexp_square_multiply(base, exp, mod) == pow(base, exp, mod)

    def test_exponent_zero(self):
        assert modexp_square_multiply(5, 0, 7) == 1
        assert modexp_square_multiply(5, 0, 1) == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            modexp_square_multiply(5, -1, 7)


class TestMontgomeryModexp:
    @given(odd_modulus(2, 96), st.integers(0, 1 << 200), st.integers(1, 1 << 24))
    @settings(max_examples=200)
    def test_matches_pow(self, n, m_raw, e):
        ctx = MontgomeryContext(n)
        m = m_raw % n
        result, _ = montgomery_modexp(ctx, m, e)
        assert result == pow(m, e, n)

    def test_trace_operation_counts(self):
        """Squares = bitlen-1, multiplies = weight-1, plus pre and post."""
        ctx = MontgomeryContext(197)
        e = 0b1011001
        _, trace = montgomery_modexp(ctx, 5, e)
        assert trace.squares == e.bit_length() - 1
        assert trace.multiplies == bin(e).count("1") - 1
        kinds = [op.kind for op in trace.operations]
        assert kinds[0] == "pre" and kinds[-1] == "post"
        assert trace.total_multiplications == 2 + trace.squares + trace.multiplies

    def test_exponent_one(self):
        """E = 1: no loop iterations, just domain round-trip."""
        ctx = MontgomeryContext(197)
        result, trace = montgomery_modexp(ctx, 123, 1)
        assert result == 123
        assert trace.squares == 0 and trace.multiplies == 0

    def test_all_ones_exponent_is_worst_case(self):
        """An all-ones exponent maximizes operations (Eq. 10 upper bound)."""
        ctx = MontgomeryContext(197)
        t = e = 0b11111
        _, trace = montgomery_modexp(ctx, 5, e)
        assert trace.squares == 4 and trace.multiplies == 4

    def test_intermediates_stay_in_window(self):
        """No operation result ever needs reduction — the no-subtraction
        property across a whole exponentiation."""
        ctx = MontgomeryContext(251)
        _, trace = montgomery_modexp(ctx, 250, 0xBEEF)
        for op in trace.operations:
            assert 0 <= op.result < 2 * ctx.modulus

    def test_rejects_bad_inputs(self):
        ctx = MontgomeryContext(11)
        with pytest.raises(ParameterError):
            montgomery_modexp(ctx, 11, 3)
        with pytest.raises(ParameterError):
            montgomery_modexp(ctx, 3, 0)


class TestRightToLeft:
    @given(odd_modulus(2, 96), st.integers(0, 1 << 128), st.integers(1, 1 << 24))
    @settings(max_examples=150)
    def test_matches_pow(self, n, m_raw, e):
        ctx = MontgomeryContext(n)
        m = m_raw % n
        result, _ = montgomery_modexp_rtl(ctx, m, e)
        assert result == pow(m, e, n)

    def test_same_op_count_as_l2r(self):
        """R2L and L2R cost the same multiplications; the difference is
        the dependency structure (squares independent of the accumulator)."""
        ctx = MontgomeryContext(197)
        e = 0b1011001
        _, l2r = montgomery_modexp(ctx, 5, e)
        _, r2l = montgomery_modexp_rtl(ctx, 5, e)
        assert r2l.squares == l2r.squares
        assert r2l.multiplies == l2r.multiplies + 1  # the initial A·S for bit 0...
        # (R2L multiplies once per set bit including the lowest; L2R skips
        # the implicit leading bit instead — net difference of one op.)

    def test_square_chain_independent_of_bits(self):
        """The R2L square sequence is the same for any exponent of equal
        bit length — only the multiply positions differ."""
        ctx = MontgomeryContext(197)
        _, t1 = montgomery_modexp_rtl(ctx, 9, 0b10001)
        _, t2 = montgomery_modexp_rtl(ctx, 9, 0b11111)
        sq1 = [op.x for op in t1.operations if op.kind == "square"]
        sq2 = [op.x for op in t2.operations if op.kind == "square"]
        assert len(sq1) == len(sq2)
        assert sq1 == sq2  # identical square chain (depends on M only)

    def test_exponent_one(self):
        ctx = MontgomeryContext(197)
        result, tr = montgomery_modexp_rtl(ctx, 123, 1)
        assert result == 123
        assert tr.squares == 0


class TestChain:
    """The one Algorithm 3 chain every Montgomery-domain engine drives."""

    @given(st.integers(1, 1 << 80))
    @settings(max_examples=200, deadline=None)
    def test_kinds_follow_the_binary_schedule(self, e):
        loop = {"square": "square", "mult": "multiply"}
        expected = ["pre"] + [loop[op.kind] for op in binary_schedule(e).ops] + ["post"]
        assert chain_kinds(e) == expected

    @given(odd_modulus(), st.integers(0), st.integers(1, 1 << 40))
    @settings(max_examples=100, deadline=None)
    def test_plain_products_give_the_plain_power(self, n, m_raw, e):
        """With R = 1 (so R² = 1 and Mont(x, y) = x·y mod N) the chain is
        plain square-and-multiply, checked against ``pow``."""
        m = m_raw % n
        value = run_chain(modexp_chain(m, e, 1), lambda kind, x, y: x * y % n)
        assert value == pow(m, e, n)

    def test_lane_operands_ride_through_as_lists(self):
        mods = [7, 11, 13]
        value = run_chain(
            modexp_chain([3, 5, 6], 5, [1, 1, 1], one=[1, 1, 1]),
            lambda kind, xs, ys: [x * y % n for x, y, n in zip(xs, ys, mods)],
        )
        assert value == [pow(b, 5, n) for b, n in zip([3, 5, 6], mods)]
