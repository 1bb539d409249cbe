"""Montgomery parameter sets.

The paper fixes radix 2 (α = 1) and the Montgomery parameter
``R = 2^(l+2)`` where ``l`` is the bit length of the modulus ``N < 2^l``.
This choice satisfies Walter's bound ``R > 4N`` so Algorithm 2 needs no
final subtraction: with inputs ``x, y < 2N`` the output stays below ``2N``
and can be fed straight back into the next multiplication.

:class:`MontgomeryContext` captures one parameter set and the derived
constants every layer of the stack needs (``N' = -N^{-1} mod 2^α``,
``N'' = -N^{-1} mod R``, ``R mod N``, ``R² mod N``, the operand window
``[0, 2N)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ParameterError
from repro.observability.observer import OBS
from repro.utils.validation import ensure_odd, ensure_positive

__all__ = [
    "MontgomeryContext",
    "precompute_montgomery_constants",
    "montgomery_cache_clear",
    "montgomery_cache_info",
]


@dataclass(frozen=True)
class MontgomeryContext:
    """Parameters for Montgomery arithmetic modulo an odd ``modulus``.

    Parameters
    ----------
    modulus:
        The odd modulus N.  For RSA this is p·q; for ECC an odd prime.
    l:
        Digit count of N in the chosen radix.  Defaults to ``N.bit_length()``
        (radix 2), matching the paper's ``N = (n_{l-1} ... n_0)_2`` with
        ``n_{l-1} = 1``.  May be larger to model a circuit wider than N.
    word_bits:
        Radix exponent α (``b = 2^α``).  The paper's hardware uses α = 1;
        the word-based software variants in :mod:`repro.montgomery.radix`
        use larger α.

    Derived attributes
    ------------------
    r_exponent:
        ``r`` with ``R = 2^r``.  For α = 1 this is ``l + 2`` (the paper's
        optimal bound); in general the smallest multiple of α such that
        ``2^r > 4N`` — i.e. the iteration count times α.
    iterations:
        Number of loop iterations of the multiplication algorithm
        (``l + 2`` for α = 1, ``ceil((l·α + 2)/α)`` digits in general).
    n_neg_inv_r, r_mask, two_n:
        ``N'' = -N^{-1} mod R``, ``R - 1`` and ``2N``: the constants of the
        closed-form product in
        :func:`~repro.montgomery.algorithms.montgomery_no_subtraction`.
    """

    modulus: int
    l: int = 0
    word_bits: int = 1
    # Derived, filled in by __post_init__ (kept as real fields so the
    # dataclass stays frozen and hashable).
    r_exponent: int = field(init=False)
    R: int = field(init=False)
    n_prime: int = field(init=False)
    r_mod_n: int = field(init=False)
    r2_mod_n: int = field(init=False)
    n_neg_inv_r: int = field(init=False)
    r_mask: int = field(init=False)
    two_n: int = field(init=False)

    def __post_init__(self) -> None:
        ensure_odd("modulus", self.modulus)
        if self.modulus < 3:
            raise ParameterError(f"modulus must be >= 3, got {self.modulus}")
        ensure_positive("word_bits", self.word_bits)
        l = self.l if self.l else self.modulus.bit_length()
        if l < self.modulus.bit_length():
            raise ParameterError(
                f"l={l} too small for modulus of {self.modulus.bit_length()} bits"
            )
        object.__setattr__(self, "l", l)

        # R = 2^(l+2) for radix 2; for radix 2^α round l*1+2 bits up to a
        # whole number of α-bit digits so R is a power of the word base.
        bits_needed = l + 2
        alpha = self.word_bits
        iterations = -(-bits_needed // alpha)
        r_exp = iterations * alpha
        object.__setattr__(self, "r_exponent", r_exp)
        object.__setattr__(self, "R", 1 << r_exp)

        base = 1 << alpha
        # N' = -N^{-1} mod 2^α.  For α = 1 and odd N this is always 1,
        # which is why the rightmost systolic cell needs no multiplier.
        n_inv = pow(self.modulus, -1, base)
        object.__setattr__(self, "n_prime", (-n_inv) % base)
        object.__setattr__(self, "r_mod_n", self.R % self.modulus)
        object.__setattr__(self, "r2_mod_n", (self.R * self.R) % self.modulus)
        object.__setattr__(
            self, "n_neg_inv_r", (-pow(self.modulus, -1, self.R)) % self.R
        )
        object.__setattr__(self, "r_mask", self.R - 1)
        object.__setattr__(self, "two_n", 2 * self.modulus)

    # ------------------------------------------------------------------
    # Convenience properties
    # ------------------------------------------------------------------
    @property
    def iterations(self) -> int:
        """Loop iterations per multiplication (``l + 2`` when α = 1)."""
        return self.r_exponent // self.word_bits

    @property
    def operand_bound(self) -> int:
        """Exclusive upper bound ``2N`` of the Algorithm 2 operand window."""
        return self.two_n

    @property
    def r_inverse(self) -> int:
        """``R^{-1} mod N`` (used to state the Mont(x, y) postcondition)."""
        return pow(self.R, -1, self.modulus)

    def satisfies_walter_bound(self) -> bool:
        """True iff ``R > 4N`` — the condition making subtraction removable."""
        return self.R > 4 * self.modulus

    def check_operand(self, name: str, value: int) -> int:
        """Validate that ``value`` lies in the ``[0, 2N)`` operand window."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(f"{name} must be an int")
        if not 0 <= value < self.two_n:
            raise ParameterError(
                f"{name}={value} outside Algorithm 2 window [0, {self.two_n})"
            )
        return value

    def to_montgomery(self, value: int) -> int:
        """Map ``value`` to its Montgomery representation ``value·R mod N``."""
        return (value * self.R) % self.modulus

    def from_montgomery(self, value: int) -> int:
        """Map a Montgomery representation back to ``Z_N``."""
        return (value * self.r_inverse) % self.modulus

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MontgomeryContext(modulus={self.modulus}, l={self.l}, "
            f"word_bits={self.word_bits}, R=2^{self.r_exponent})"
        )


# ----------------------------------------------------------------------
# Shared pre-computation cache
# ----------------------------------------------------------------------
@lru_cache(maxsize=1024)
def _build_context(modulus: int, l: int, word_bits: int) -> MontgomeryContext:
    return MontgomeryContext(modulus, l, word_bits)


def precompute_montgomery_constants(
    modulus: int, l: int = 0, word_bits: int = 1
) -> MontgomeryContext:
    """Return the cached :class:`MontgomeryContext` for ``(modulus, l)``.

    The derived constants (``R``, ``R² mod N``, ``N'``, ``N''``) involve a
    modular squaring and two modular inversions, so sharing them matters
    anywhere many operations hit the same modulus: the exponentiator, the RSA
    cipher, and especially the batch scheduler in :mod:`repro.serving`,
    which coalesces same-modulus requests exactly so this function runs
    once per batch instead of once per request.

    Cache misses (i.e. actual pre-computations) increment the
    ``montgomery.precompute`` counter when observation is enabled; hits
    increment ``montgomery.precompute_cache_hits``.
    """
    if not OBS.enabled:
        return _build_context(modulus, l, word_bits)
    before = _build_context.cache_info().misses
    ctx = _build_context(modulus, l, word_bits)
    if _build_context.cache_info().misses != before:
        OBS.count("montgomery.precompute")
    else:
        OBS.count("montgomery.precompute_cache_hits")
    return ctx


def montgomery_cache_clear() -> None:
    """Drop every cached parameter set (tests / benchmarks start fresh)."""
    _build_context.cache_clear()


def montgomery_cache_info():
    """``functools.lru_cache`` statistics for the shared constant cache."""
    return _build_context.cache_info()
