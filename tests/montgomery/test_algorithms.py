"""Unit + property tests for Algorithms 1 and 2."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SimulationError
from repro.montgomery.algorithms import (
    montgomery_no_subtraction,
    montgomery_reduce,
    montgomery_trace,
    montgomery_with_subtraction,
)
from repro.montgomery.params import MontgomeryContext

from tests.conftest import context_and_operands, odd_modulus


class TestAlgorithm2:
    """montgomery_no_subtraction — the paper's core algorithm."""

    def test_known_value(self):
        ctx = MontgomeryContext(11)  # l=4, R=2^6=64
        # Mont(3, 5) = 3*5*64^-1 mod 11; 64^-1 mod 11: 64 ≡ 9, 9*5=45≡1 → 5.
        assert montgomery_no_subtraction(ctx, 3, 5) % 11 == (3 * 5 * 5) % 11

    def test_zero_operand(self):
        ctx = MontgomeryContext(11)
        assert montgomery_no_subtraction(ctx, 0, 17) == 0
        assert montgomery_no_subtraction(ctx, 17, 0) == 0

    def test_rejects_out_of_window(self):
        ctx = MontgomeryContext(11)
        with pytest.raises(ParameterError):
            montgomery_no_subtraction(ctx, 22, 1)
        with pytest.raises(ParameterError):
            montgomery_no_subtraction(ctx, 1, -1)

    def test_rejects_word_base(self):
        ctx = MontgomeryContext(11, word_bits=4)
        with pytest.raises(ParameterError):
            montgomery_no_subtraction(ctx, 1, 1)

    @given(context_and_operands())
    @settings(max_examples=300)
    def test_congruence_and_window(self, cxy):
        """The two defining properties: T ≡ xyR^-1 (mod N) and T < 2N."""
        ctx, x, y = cxy
        t = montgomery_no_subtraction(ctx, x, y)
        n = ctx.modulus
        assert 0 <= t < 2 * n
        assert t % n == (x * y * ctx.r_inverse) % n

    @given(context_and_operands())
    @settings(max_examples=150)
    def test_closure_feeds_back(self, cxy):
        """Outputs are valid inputs: the whole point of the bound."""
        ctx, x, y = cxy
        t1 = montgomery_no_subtraction(ctx, x, y)
        t2 = montgomery_no_subtraction(ctx, t1, t1)  # no reduction between
        assert 0 <= t2 < 2 * ctx.modulus

    def test_worst_case_corner(self):
        """x = y = 2N-1, the corner of the operand window."""
        for n in (3, 11, 197, (1 << 31) - 1):
            ctx = MontgomeryContext(n)
            t = montgomery_no_subtraction(ctx, 2 * n - 1, 2 * n - 1)
            assert t < 2 * n


class TestAlgorithm1:
    """montgomery_with_subtraction — the classical form."""

    @given(context_and_operands())
    @settings(max_examples=200)
    def test_classical_postcondition(self, cxy):
        ctx, x, y = cxy
        n = ctx.modulus
        x, y = x % n, y % n
        t = montgomery_with_subtraction(ctx, x, y)
        l_digits = -(-ctx.l // ctx.word_bits)
        r1 = (1 << ctx.word_bits) ** l_digits
        assert 0 <= t < n
        assert t == (x * y * pow(r1, -1, n)) % n

    def test_word_base_variants_agree_mod_n(self):
        n = 0xF1FB  # odd
        x, y = 1234, 56789 % n
        for alpha in (1, 2, 4, 8):
            ctx = MontgomeryContext(n, word_bits=alpha)
            t = montgomery_with_subtraction(ctx, x, y)
            l_digits = -(-ctx.l // alpha)
            r1 = (1 << alpha) ** l_digits
            assert t == (x * y * pow(r1, -1, n)) % n

    def test_rejects_unreduced_input(self):
        ctx = MontgomeryContext(11)
        with pytest.raises(ParameterError):
            montgomery_with_subtraction(ctx, 11, 1)


class TestTrace:
    def test_trace_matches_result(self):
        ctx = MontgomeryContext(197)
        t, steps = montgomery_trace(ctx, 300, 150)
        assert t == montgomery_no_subtraction(ctx, 300, 150)
        assert len(steps) == ctx.iterations
        assert steps[-1].t_after == t

    def test_trace_x_digits(self):
        ctx = MontgomeryContext(197)
        x = 0b1011001
        _, steps = montgomery_trace(ctx, x, 5)
        assert [s.x_digit for s in steps] == [(x >> i) & 1 for i in range(ctx.iterations)]

    @given(context_and_operands(2, 48))
    @settings(max_examples=100)
    def test_step_recurrence(self, cxy):
        """Each step obeys T_i = (T_{i-1} + x_i y + m_i N) / 2 exactly."""
        ctx, x, y = cxy
        _, steps = montgomery_trace(ctx, x, y)
        prev = 0
        for s in steps:
            total = prev + s.x_digit * y + s.m_digit * ctx.modulus
            assert total % 2 == 0, "m_i must make the sum even"
            assert s.t_after == total // 2
            prev = s.t_after


@st.composite
def _wide_context_and_operands(draw):
    """(ctx, x, y): N of 2..1100 bits, l up to 8 bits wider than N, and
    operands from the window's edges or anywhere in [0, 2N)."""
    bits = draw(st.integers(2, 1100))
    n = (1 << (bits - 1)) | draw(st.integers(0, (1 << (bits - 1)) - 1)) | 1
    ctx = MontgomeryContext(n, l=bits + draw(st.integers(0, 8)))
    operand = st.one_of(
        st.sampled_from([0, 1, n - 1, n, n + 1, 2 * n - 1]),
        st.integers(0, 2 * n - 1),
    )
    return ctx, draw(operand), draw(operand)


class TestClosedFormEqualsLoop:
    """The closed-form product is bit-identical to the printed loop."""

    @given(_wide_context_and_operands())
    @settings(max_examples=300, deadline=None)
    def test_equals_bit_serial_loop(self, cxy):
        ctx, x, y = cxy
        assert montgomery_no_subtraction(ctx, x, y) == montgomery_trace(ctx, x, y)[0]

    def test_every_edge_pair_on_small_moduli(self):
        for n in (3, 5, 11, 197, (1 << 31) - 1):
            for l in (n.bit_length(), n.bit_length() + 3):
                ctx = MontgomeryContext(n, l=l)
                edges = (0, 1, n - 1, n, n + 1, 2 * n - 1)
                for x in edges:
                    for y in edges:
                        assert (
                            montgomery_no_subtraction(ctx, x, y)
                            == montgomery_trace(ctx, x, y)[0]
                        )

    @pytest.mark.parametrize("product", [montgomery_no_subtraction, montgomery_trace])
    @pytest.mark.parametrize("name", ["x", "y"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (-1, "{}=-1 outside Algorithm 2 window [0, 22)"),
            (22, "{}=22 outside Algorithm 2 window [0, 22)"),
            (True, "{} must be an int"),
            (1.0, "{} must be an int"),
        ],
    )
    def test_operand_rejections(self, product, name, value, message):
        operands = {"x": 1, "y": 1, name: value}
        expected = f"^{re.escape(message.format(name))}$"
        with pytest.raises(ParameterError, match=expected):
            product(MontgomeryContext(11), operands["x"], operands["y"])

    @pytest.mark.parametrize("product", [montgomery_no_subtraction, montgomery_trace])
    def test_word_base_rejection(self, product):
        ctx = MontgomeryContext(11, word_bits=2)
        message = (
            "Algorithm 2 is the radix-2 algorithm; use repro.montgomery.radix "
            "for word_bits=2"
        )
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            product(ctx, 1, 1)

    @pytest.mark.parametrize("product", [montgomery_no_subtraction, montgomery_trace])
    def test_walter_bound_violation_is_caught(self, product):
        """A context whose R is too small for N (R = 2^(l+1) < 4N) lets the
        output leave [0, 2N); both paths report it instead of returning."""
        n = 251
        ctx = MontgomeryContext(n)
        r_exp = n.bit_length() + 1
        for name, value in (
            ("r_exponent", r_exp),
            ("R", 1 << r_exp),
            ("r_mask", (1 << r_exp) - 1),
            ("n_neg_inv_r", (-pow(n, -1, 1 << r_exp)) % (1 << r_exp)),
        ):
            object.__setattr__(ctx, name, value)
        with pytest.raises(SimulationError, match="Walter bound violated"):
            product(ctx, 2 * n - 1, 2 * n - 1)


class TestMontgomeryReduce:
    @given(context_and_operands())
    @settings(max_examples=150)
    def test_reduce_leaves_domain(self, cxy):
        """Mont(T, 1) lands in [0, N) and strips the R factor."""
        ctx, x, _ = cxy
        reduced = montgomery_reduce(ctx, x)
        assert 0 <= reduced < ctx.modulus
        assert reduced == (x * ctx.r_inverse) % ctx.modulus

    def test_paper_bound_mont_t_1_le_n(self):
        """Section 3: Mont(T, 1) <= N for T < 2N (never raises)."""
        for n in (3, 11, 197, 65535 + 2):
            ctx = MontgomeryContext(n)
            for t in (0, 1, n - 1, n, 2 * n - 1):
                montgomery_reduce(ctx, t)
