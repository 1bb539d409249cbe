"""Algorithms 1 and 2 of the paper: Montgomery multiplication.

* :func:`montgomery_with_subtraction` — Algorithm 1, the classical form with
  a data-dependent final subtraction (operands in ``[0, N)``, output in
  ``[0, N)``), implemented as printed.  Works for any word base ``2^α``.
* :func:`montgomery_no_subtraction` — Algorithm 2, the paper's radix-2 form
  with ``R = 2^(l+2)`` and **no** final subtraction (operands in ``[0, 2N)``,
  output in ``[0, 2N)``).  This is what the systolic array computes.  It is
  evaluated in closed form::

      M = (x·y mod R)·N'' mod R,   N'' = -N^{-1} mod R
      T = (x·y + M·N) / R

  which is bit-identical to the printed loop: iteration ``i`` picks the one
  bit ``m_i`` that makes its partial sum even, so after ``l + 2``
  iterations ``x·y + (Σ m_i 2^i)·N ≡ 0 (mod R)`` with ``Σ m_i 2^i < R``;
  the only such value is ``M``, and the loop's ``T`` is the exact quotient
  above.

  It is the one copy of that formula and of the Walter check ``T < 2N``,
  and every golden product runs through it: its operand checks cost one
  chained comparison unless an operand is out of range, where
  :func:`check_radix2_operands` raises the precise error.
* :func:`montgomery_trace` — the printed Algorithm 2 loop, bit by bit, with
  the quotient digit ``m_i`` and partial result ``T_i`` of every
  iteration.  It is the digit-by-digit reference the RTL and gate-level
  simulators are replayed against, and the only place the loop runs.

Both algorithms return ``x·y·R^{-1}`` modulo N (Algorithm 2 modulo 2N,
congruent mod N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ParameterError, SimulationError
from repro.montgomery.params import MontgomeryContext

__all__ = [
    "MontgomeryStep",
    "montgomery_with_subtraction",
    "montgomery_no_subtraction",
    "check_radix2_operands",
    "montgomery_trace",
    "montgomery_reduce",
]


@dataclass(frozen=True)
class MontgomeryStep:
    """One iteration of the Montgomery loop.

    Attributes
    ----------
    index:
        Iteration counter ``i``.
    x_digit:
        The multiplier digit ``x_i`` consumed this iteration.
    m_digit:
        The quotient digit ``m_i`` that makes ``T + x_i·y + m_i·N``
        divisible by the word base.
    t_after:
        The partial result ``T_i`` *after* the division by the word base.
    """

    index: int
    x_digit: int
    m_digit: int
    t_after: int


def _digits(value: int, count: int, alpha: int) -> List[int]:
    """Little-endian base-2^α digits of ``value``, padded to ``count``."""
    mask = (1 << alpha) - 1
    return [(value >> (alpha * i)) & mask for i in range(count)]


def montgomery_with_subtraction(
    ctx: MontgomeryContext, x: int, y: int
) -> int:
    """Algorithm 1: Montgomery multiplication *with* the final subtraction.

    Requires ``x, y ∈ [0, N)``; returns ``x·y·R1^{-1} mod N`` where
    ``R1 = (2^α)^l`` is the classical Montgomery parameter (just above N,
    not the enlarged ``2^(l+2)`` of Algorithm 2).

    The subtraction in steps 6–8 executes only when the accumulated T
    reaches N — the data-dependent behaviour the paper eliminates.
    """
    n = ctx.modulus
    if not 0 <= x < n:
        raise ParameterError(f"Algorithm 1 requires x in [0, N); got x={x}")
    if not 0 <= y < n:
        raise ParameterError(f"Algorithm 1 requires y in [0, N); got y={y}")
    alpha = ctx.word_bits
    base = 1 << alpha
    # Classical parameter: l digits, R1 = base^l >= N.
    l_digits = -(-ctx.l // alpha)
    xs = _digits(x, l_digits, alpha)
    t = 0
    for i in range(l_digits):
        t0 = t & (base - 1)
        m_i = ((t0 + xs[i] * (y & (base - 1))) * ctx.n_prime) % base
        t = (t + xs[i] * y + m_i * n) >> alpha
    if t >= n:
        t -= n
    return t


def check_radix2_operands(ctx: MontgomeryContext, x: int, y: int) -> None:
    """Reject a non-radix-2 context or an operand outside ``[0, 2N)``.

    The :class:`~repro.errors.ParameterError` checks of
    :func:`montgomery_no_subtraction`, callable on their own for the
    entry operands of a chain before its first product.
    """
    if ctx.word_bits != 1:
        raise ParameterError(
            "Algorithm 2 is the radix-2 algorithm; use repro.montgomery.radix "
            f"for word_bits={ctx.word_bits}"
        )
    ctx.check_operand("x", x)
    ctx.check_operand("y", y)


def _walter_violation(t: int, two_n: int) -> SimulationError:
    # The Walter bound guarantees this never happens; hitting it means
    # the context was constructed inconsistently.
    return SimulationError(
        f"Algorithm 2 output {t} >= 2N={two_n}: Walter bound violated"
    )


def montgomery_no_subtraction(ctx: MontgomeryContext, x: int, y: int) -> int:
    """Algorithm 2: radix-2 Montgomery multiplication *without* subtraction.

    Requires ``x, y ∈ [0, 2N)`` and ``R = 2^(l+2) > 4N`` (guaranteed by
    :class:`MontgomeryContext`); returns ``T ≡ x·y·R^{-1} (mod N)`` with
    ``T < 2N``, so the result feeds the next multiplication directly.

    Checks both operands, then computes the closed form
    ``T = (x·y + M·N) / R`` with ``M = (x·y mod R)·N'' mod R`` from the
    context's precomputed ``N''`` and ``R - 1``; the value equals the
    bit-serial loop of :func:`montgomery_trace` for every operand pair in
    the window.  Raises :class:`~repro.errors.SimulationError` if ``T``
    breaks Walter's ``T < 2N`` bound.
    """
    two_n = ctx.two_n
    if not (
        type(x) is int and type(y) is int and 0 <= x < two_n and 0 <= y < two_n
    ) or ctx.word_bits != 1:
        # Out of the fast path: raise the precise error (an int subclass passes).
        check_radix2_operands(ctx, x, y)
    xy = x * y
    mask = ctx.r_mask
    t = (xy + ((xy & mask) * ctx.n_neg_inv_r & mask) * ctx.modulus) >> ctx.r_exponent
    if t >= two_n:
        raise _walter_violation(t, two_n)
    return t


def montgomery_trace(
    ctx: MontgomeryContext, x: int, y: int
) -> Tuple[int, List[MontgomeryStep]]:
    """Algorithm 2 as printed, with a full per-iteration trace.

    Returns ``(T, steps)`` where ``steps[i]`` records ``x_i``, ``m_i`` and
    the partial result after iteration ``i``.  The hardware simulators are
    validated against this trace digit by digit; ``T`` equals
    :func:`montgomery_no_subtraction`.
    """
    check_radix2_operands(ctx, x, y)
    n = ctx.modulus
    y0 = y & 1
    steps: List[MontgomeryStep] = []
    t = 0
    for i in range(ctx.iterations):  # l + 2
        x_i = (x >> i) & 1
        m_i = (t ^ (x_i & y0)) & 1  # (t0 + x_i*y0) mod 2, N' = 1
        t = (t + x_i * y + m_i * n) >> 1
        steps.append(MontgomeryStep(index=i, x_digit=x_i, m_digit=m_i, t_after=t))
    if t >= ctx.two_n:
        raise _walter_violation(t, ctx.two_n)
    return t, steps


def montgomery_reduce(ctx: MontgomeryContext, value: int) -> int:
    """Montgomery reduction: ``Mont(value, 1) = value·R^{-1}``, bounded by N.

    This is the paper's post-processing step — one multiplication by 1
    converts out of the Montgomery domain.  The paper argues the result is
    ``<= N`` and equality cannot occur for nonzero residues; we return the
    value reduced into ``[0, N)`` and assert the paper's bound held.
    """
    t = montgomery_no_subtraction(ctx, value, 1)
    if t > ctx.modulus:
        raise SimulationError(
            f"Mont(T, 1) = {t} exceeded N = {ctx.modulus}; bound argument violated"
        )
    return t % ctx.modulus
