"""Algorithm-level Montgomery multiplication library (the golden models).

This package implements the arithmetic the paper's hardware realizes:

* :mod:`repro.montgomery.params` — the parameter set (N, l, R = 2^(l+2), N',
  R² mod N) with the Walter/Örs bound built in.
* :mod:`repro.montgomery.algorithms` — Algorithm 1 (with final subtraction)
  and Algorithm 2 (without; computed in closed form), plus the printed
  bit-serial loop with step-by-step iteration traces as the reference.
* :mod:`repro.montgomery.bounds` — the R ≥ 4N bound analysis of Section 3.
* :mod:`repro.montgomery.exponent` — Algorithm 3 modular exponentiation and
  the paper's cycle accounting.
* :mod:`repro.montgomery.domain` — a convenience Montgomery-domain wrapper.
* :mod:`repro.montgomery.radix` — word-based (radix-2^α) variants.
"""

from repro.montgomery.params import (
    MontgomeryContext,
    montgomery_cache_clear,
    montgomery_cache_info,
    precompute_montgomery_constants,
)
from repro.montgomery.algorithms import (
    montgomery_with_subtraction,
    montgomery_no_subtraction,
    montgomery_trace,
    MontgomeryStep,
)
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.exponent import (
    modexp_square_multiply,
    montgomery_modexp,
    montgomery_modexp_rtl,
    montgomery_powering_ladder,
    ExponentiationTrace,
)
from repro.montgomery.bootstrap import compute_r2
from repro.montgomery.windowed import windowed_modexp

__all__ = [
    "MontgomeryContext",
    "precompute_montgomery_constants",
    "montgomery_cache_clear",
    "montgomery_cache_info",
    "MontgomeryDomain",
    "montgomery_with_subtraction",
    "montgomery_no_subtraction",
    "montgomery_trace",
    "MontgomeryStep",
    "modexp_square_multiply",
    "montgomery_modexp",
    "montgomery_modexp_rtl",
    "montgomery_powering_ladder",
    "ExponentiationTrace",
    "compute_r2",
    "windowed_modexp",
]
