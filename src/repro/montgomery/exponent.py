"""Algorithm 3: modular exponentiation by square-and-multiply.

Implements the paper's left-to-right square-and-multiply exponentiation both
as a plain modular algorithm (:func:`modexp_square_multiply`, the
independent reference) and in the Montgomery domain exactly as the
exponentiator circuit schedules it:

1. pre-processing — Mont(M, R² mod N) maps the message into the domain;
2. the scan of the exponent from bit ``t-2`` downward, squaring every step
   and multiplying when the bit is 1;
3. post-processing — Mont(A, 1) strips the R factor.

That Montgomery-domain schedule is written once, as the coroutine
:func:`modexp_chain`: it yields each multiplication's ``(kind, x, y)`` and
receives the product.  :func:`run_chain` drives it with one multiplier
call at a time; every engine that runs Algorithm 3 does so through it —
:func:`montgomery_modexp` here, the systolic
:class:`~repro.systolic.exponentiator.ModularExponentiator`, the serving
backends (the netlist backends with one list of operands per lane), the
chip backend (which interleaves many chains), the Algorithm 1 side-channel
trace and the overlapped-issue cycle model.

:func:`montgomery_modexp` also returns an :class:`ExponentiationTrace`
recording every multiplication performed (kind, operands) plus the paper's
cycle accounting, so the RTL exponentiator and the Table 1 benchmark can be
validated against it operation by operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Tuple

from repro.errors import ParameterError
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.params import MontgomeryContext
from repro.utils.validation import ensure_positive

__all__ = [
    "Chain",
    "modexp_chain",
    "run_chain",
    "chain_kinds",
    "modexp_square_multiply",
    "montgomery_modexp",
    "montgomery_modexp_rtl",
    "montgomery_powering_ladder",
    "ExponentiationTrace",
    "MultOp",
]


@dataclass(frozen=True)
class MultOp:
    """One Montgomery multiplication issued by the exponentiator.

    ``kind`` is one of ``"pre"``, ``"square"``, ``"multiply"``, ``"post"``.
    """

    kind: str
    x: int
    y: int
    result: int


@dataclass
class ExponentiationTrace:
    """Complete record of one modular exponentiation.

    Attributes
    ----------
    operations:
        Every Montgomery multiplication in issue order.
    squares / multiplies:
        Counts of the two loop operation kinds (pre/post excluded).
    """

    operations: List[MultOp] = field(default_factory=list)

    @property
    def squares(self) -> int:
        return sum(1 for op in self.operations if op.kind == "square")

    @property
    def multiplies(self) -> int:
        return sum(1 for op in self.operations if op.kind == "multiply")

    @property
    def total_multiplications(self) -> int:
        """All Montgomery multiplications including pre- and post-processing."""
        return len(self.operations)


#: Algorithm 3 as a coroutine: yields ``(kind, x, y)``, receives the product.
Chain = Generator[Tuple[str, Any, Any], Any, Any]


def modexp_chain(base: Any, exponent: int, r2: Any, one: Any = 1) -> Chain:
    """The Montgomery-domain Algorithm 3 schedule, one multiplication per yield.

    Yields ``(kind, x, y)`` with ``kind`` one of ``"pre"`` (Mont(M, R²)),
    ``"square"``, ``"multiply"`` (by the standing M·R) and ``"post"``
    (Mont(A, 1)); the driver sends back Mont(x, y) and the chain returns
    the last product.  Operands are opaque to the schedule: ints for one
    exponentiation, or one list per operand (one entry per lane) for a
    lock-step lane sweep, with ``one`` the post-multiplication's 1 in the
    same shape.  The caller validates ``exponent >= 1``.
    """
    m_bar = yield ("pre", base, r2)
    a = m_bar
    for i in reversed(range(exponent.bit_length() - 1)):
        a = yield ("square", a, a)
        if (exponent >> i) & 1:
            a = yield ("multiply", a, m_bar)
    return (yield ("post", a, one))


def run_chain(chain: Chain, mont: Callable[[str, Any, Any], Any]) -> Any:
    """Drive ``chain`` to its end, one ``mont(kind, x, y)`` call per product."""
    step = next(chain)
    while True:
        try:
            step = chain.send(mont(*step))
        except StopIteration as fin:
            return fin.value


def chain_kinds(exponent: int) -> List[str]:
    """The multiplication kinds :func:`modexp_chain` issues for ``exponent``."""
    kinds: List[str] = []
    run_chain(modexp_chain(0, exponent, 0), lambda kind, x, y: kinds.append(kind))
    return kinds


def modexp_square_multiply(base: int, exponent: int, modulus: int) -> int:
    """Algorithm 3 verbatim: left-to-right binary square-and-multiply.

    Plain modular arithmetic (no Montgomery domain); serves as the reference
    the Montgomery pipeline is checked against, independent of ``pow``.
    """
    ensure_positive("modulus", modulus)
    if exponent < 0:
        raise ParameterError(f"exponent must be >= 0, got {exponent}")
    if exponent == 0:
        return 1 % modulus
    a = base % modulus
    for i in reversed(range(exponent.bit_length() - 1)):
        a = (a * a) % modulus
        if (exponent >> i) & 1:
            a = (a * base) % modulus
    return a


def montgomery_modexp(
    ctx: MontgomeryContext, message: int, exponent: int
) -> Tuple[int, ExponentiationTrace]:
    """Exponentiation through the Montgomery pipeline of Section 4.5.

    Returns ``(message^exponent mod N, trace)``.  The sequencing mirrors the
    circuit: one pre-multiplication by ``R² mod N``, the Algorithm 3 scan
    with every intermediate staying in the ``[0, 2N)`` window (no reductions
    anywhere), and one final multiplication by 1.
    """
    if not 0 <= message < ctx.modulus:
        raise ParameterError(
            f"message must be in [0, N); got {message} for N={ctx.modulus}"
        )
    if exponent <= 0:
        raise ParameterError(f"exponent must be >= 1, got {exponent}")
    trace = ExponentiationTrace()

    def mont(kind: str, x: int, y: int) -> int:
        r = montgomery_no_subtraction(ctx, x, y)
        trace.operations.append(MultOp(kind=kind, x=x, y=y, result=r))
        return r

    result = run_chain(modexp_chain(message, exponent, ctx.r2_mod_n), mont)
    return result % ctx.modulus, trace


def montgomery_modexp_rtl(
    ctx: MontgomeryContext, message: int, exponent: int
) -> Tuple[int, ExponentiationTrace]:
    """Right-to-left binary exponentiation through the Montgomery pipeline.

    Scans the exponent LSB-first with two accumulators: the running
    square chain ``S`` and the product accumulator ``A``.  Same operation
    count as left-to-right, but the square chain is *independent of the
    accumulator*: on hardware with two multipliers (or an overlapped
    issue pipeline, see :mod:`repro.systolic.pipeline`) the square and
    the conditional multiply of one step can proceed concurrently —
    the classic argument for R2L in hardware exponentiators.
    """
    if not 0 <= message < ctx.modulus:
        raise ParameterError(
            f"message must be in [0, N); got {message} for N={ctx.modulus}"
        )
    if exponent <= 0:
        raise ParameterError(f"exponent must be >= 1, got {exponent}")
    trace = ExponentiationTrace()

    def mont(kind: str, x: int, y: int) -> int:
        r = montgomery_no_subtraction(ctx, x, y)
        trace.operations.append(MultOp(kind=kind, x=x, y=y, result=r))
        return r

    s = mont("pre", message, ctx.r2_mod_n)
    a = ctx.r_mod_n  # domain 1
    e = exponent
    while e:
        if e & 1:
            a = mont("multiply", a, s)
        e >>= 1
        if e:
            s = mont("square", s, s)
    result = mont("post", a, 1)
    return result % ctx.modulus, trace


def montgomery_powering_ladder(
    ctx: MontgomeryContext, message: int, exponent: int
) -> Tuple[int, ExponentiationTrace]:
    """SPA-hardened exponentiation: the Montgomery powering ladder.

    Two multiplications per exponent bit, *always*, regardless of the
    bit's value — the operation **sequence** no longer leaks the exponent
    (plain square-and-multiply reveals every 1-bit to an SPA observer even
    when each multiplication is constant-time, because multiply-after-
    square events mark the 1s).  Costs ~33% more multiplications than
    Algorithm 3 on a balanced exponent; the side-channel benchmark
    quantifies the trade.

    Returns ``(message^exponent mod N, trace)`` exactly like
    :func:`montgomery_modexp`; the trace records the regular
    ladder-step / ladder-square rhythm.
    """
    if not 0 <= message < ctx.modulus:
        raise ParameterError(
            f"message must be in [0, N); got {message} for N={ctx.modulus}"
        )
    if exponent <= 0:
        raise ParameterError(f"exponent must be >= 1, got {exponent}")
    trace = ExponentiationTrace()

    def mont(kind: str, x: int, y: int) -> int:
        r = montgomery_no_subtraction(ctx, x, y)
        trace.operations.append(MultOp(kind=kind, x=x, y=y, result=r))
        return r

    m_bar = mont("pre", message, ctx.r2_mod_n)
    r0 = ctx.r_mod_n  # domain representation of 1
    r1 = m_bar
    for i in reversed(range(exponent.bit_length())):
        if (exponent >> i) & 1:
            r0 = mont("ladder-mul", r0, r1)
            r1 = mont("ladder-sq", r1, r1)
        else:
            r1 = mont("ladder-mul", r0, r1)
            r0 = mont("ladder-sq", r0, r0)
    result = mont("post", r0, 1)
    return result % ctx.modulus, trace
