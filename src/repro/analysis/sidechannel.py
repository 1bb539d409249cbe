"""Side-channel trace analysis: the value of removing the subtraction.

Section 5 claims the no-subtraction design "omits completely all reduction
steps that are presumed to be vulnerable to side-channel attacks."  This
module makes that claim measurable:

* :func:`subtraction_trace` runs an exponentiation through **Algorithm 1**
  (classical Montgomery, conditional final subtraction) and records, per
  multiplication, whether the subtraction fired — the data-dependent event
  a timing/SPA attacker observes.
* :func:`timing_histogram` turns per-operation costs into a latency
  histogram: Algorithm 1 produces two timing classes, Algorithm 2 exactly
  one (every multiplication is ``3l+4`` cycles).
* :func:`leakage_summary` quantifies the difference: the fraction of
  operations leaking, and the exponent-correlation of Algorithm 1's
  subtraction pattern versus the (empty) variation of Algorithm 2.

The benchmark ``bench_sidechannel`` reproduces the qualitative claim:
Algorithm 1's per-operation latency varies with secret-dependent data;
Algorithm 2's trace is perfectly flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ParameterError
from repro.montgomery.exponent import modexp_chain, run_chain
from repro.montgomery.params import MontgomeryContext
from repro.systolic.timing import mmm_cycles

__all__ = [
    "SubtractionTrace",
    "subtraction_trace",
    "timing_histogram",
    "leakage_summary",
]


@dataclass
class SubtractionTrace:
    """Record of one Algorithm-1 exponentiation's conditional subtractions."""

    modulus: int
    exponent: int
    #: one flag per Montgomery multiplication, True = subtraction fired.
    subtractions: List[bool]
    result: int

    @property
    def leak_count(self) -> int:
        return sum(self.subtractions)

    @property
    def leak_fraction(self) -> float:
        return self.leak_count / len(self.subtractions) if self.subtractions else 0.0


def _mont_with_flag(ctx: MontgomeryContext, x: int, y: int) -> Tuple[int, bool]:
    """Classical radix-2 Montgomery (R = 2^l) with the subtraction flag."""
    n = ctx.modulus
    t = 0
    y0 = y & 1
    for i in range(ctx.l):
        x_i = (x >> i) & 1
        m_i = (t ^ (x_i & y0)) & 1
        t = (t + x_i * y + m_i * n) >> 1
    subtracted = t >= n
    if subtracted:
        t -= n
    return t, subtracted


def subtraction_trace(
    modulus: int, message: int, exponent: int
) -> SubtractionTrace:
    """Exponentiation via Algorithm 1, recording every subtraction event.

    Classical Montgomery with ``R1 = 2^l`` and operands kept in ``[0, N)``
    by the conditional subtraction — the design point the paper replaces —
    driven through the same Algorithm 3 chain as every other engine.
    """
    ctx = MontgomeryContext(modulus)
    if not 0 <= message < modulus:
        raise ParameterError("message must be in [0, N)")
    if exponent <= 0:
        raise ParameterError("exponent must be >= 1")
    r1_sq = pow(1 << ctx.l, 2, modulus)
    flags: List[bool] = []

    def mont(kind: str, x: int, y: int) -> int:
        v, f = _mont_with_flag(ctx, x, y)
        flags.append(f)
        return v

    result = run_chain(modexp_chain(message, exponent, r1_sq), mont)
    return SubtractionTrace(
        modulus=modulus, exponent=exponent, subtractions=flags, result=result
    )


def timing_histogram(
    trace: SubtractionTrace, *, subtraction_penalty: int = None
) -> Dict[int, int]:
    """Per-multiplication latency histogram for an Algorithm-1 trace.

    Each multiplication costs the base ``3l+4`` cycles plus, when its
    subtraction fired, a full-width subtraction pass (default penalty:
    one cycle per word on a 32-bit datapath, at least 1).  Algorithm 2's
    histogram is by construction a single bar at ``3l+4``.
    """
    l = trace.modulus.bit_length()
    base = mmm_cycles(l)
    penalty = (
        subtraction_penalty
        if subtraction_penalty is not None
        else max(-(-l // 32), 1)
    )
    hist: Dict[int, int] = {}
    for fired in trace.subtractions:
        cost = base + (penalty if fired else 0)
        hist[cost] = hist.get(cost, 0) + 1
    return hist


def leakage_summary(traces: List[SubtractionTrace]) -> Dict[str, float]:
    """Aggregate leak statistics over many traces.

    Returns the mean leak fraction, the variance of per-trace leak counts
    (nonzero variance = distinguishable traces = exploitable), and the
    number of distinct timing classes.
    """
    if not traces:
        raise ParameterError("need at least one trace")
    fractions = [t.leak_fraction for t in traces]
    counts = [t.leak_count for t in traces]
    mean_frac = sum(fractions) / len(fractions)
    mean_count = sum(counts) / len(counts)
    var_count = sum((c - mean_count) ** 2 for c in counts) / len(counts)
    classes = set()
    for t in traces:
        classes.update(timing_histogram(t).keys())
    return {
        "mean_leak_fraction": mean_frac,
        "leak_count_variance": var_count,
        "timing_classes": float(len(classes)),
    }
