"""Overlapped (pipelined) multiplication issue on the linear array.

The paper prices one multiplication at ``3l+4`` cycles but its
pre-computation at ``2(2(l+2)+1) + l = 5l+10`` — i.e. **two**
multiplications at an issue interval of ``2(l+2)+1`` plus one final
drain.  That only adds up if back-to-back multiplications overlap in the
pipeline, which the linear array indeed supports:

* rows of one multiplication issue at cycles ``0, 2, 4, ..., 2(l+1)``;
  after the last row enters, the low cells only drain — a *new*
  multiplication whose operands are ready can start issuing immediately:
  issue interval ``2(l+2)+1`` for independent operands (the paper's
  constant, one extra cycle for the X/Y/N register swap);
* the result emerges LSB-first along the diagonal (bit ``b`` final at
  cycle ``2l+3+b``) while the consumer's X input is consumed LSB-first at
  one bit per two cycles (bit ``i`` at ``2i``) — so an operation whose
  **X operand is the previous result** (with Y standing in a register)
  can start at offset ``2l+3`` and never starves: ``2l+3+i <= 2l+3+2i``;
* an operation needing the previous result as **Y** (parallel load, e.g.
  a squaring) must wait for the full drain: interval ``3l+4``.

:class:`IssuePlanner` turns an operation sequence with dependency kinds
into a cycle count; :func:`exponentiation_cycles_overlapped` applies it
to square-and-multiply, where the multiplications by the standing
``M·R mod N`` overlap with the preceding squaring's drain — recovering
most of the drain cost of half the operations.  The overlap ablation
benchmark quantifies the saving the paper's controller left on the table
(its measured totals use the non-overlapped ``3l+4`` per operation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Literal, Tuple

from repro.errors import ParameterError
from repro.montgomery.exponent import chain_kinds
from repro.utils.validation import ensure_positive

__all__ = [
    "IssueKind",
    "IssuePlanner",
    "issue_interval",
    "precomputation_overlapped",
    "exponentiation_cycles_overlapped",
]

IssueKind = Literal["independent", "stream_x", "full_drain"]


def issue_interval(l: int, kind: IssueKind) -> int:
    """Cycles between the starts of two consecutive multiplications.

    ``independent``: both operands ready (register swap limited):
    ``2(l+2)+1``.  ``stream_x``: X is the previous result, streamed bit
    by bit as it emerges; Y standing: ``2l+3``.  ``full_drain``: the
    previous result is needed in parallel (as Y or both operands):
    ``3l+4``.
    """
    ensure_positive("l", l)
    if kind == "independent":
        return 2 * (l + 2) + 1
    if kind == "stream_x":
        return 2 * l + 3
    if kind == "full_drain":
        return 3 * l + 4
    raise ParameterError(f"unknown issue kind {kind!r}")


@dataclass
class IssuePlanner:
    """Accumulates a sequence of multiplications with issue dependencies."""

    l: int
    _intervals: List[int] = None

    def __post_init__(self) -> None:
        ensure_positive("l", self.l)
        self._intervals = []

    def add(self, kind: IssueKind) -> "IssuePlanner":
        """Append one multiplication; ``kind`` states how it depends on
        the *previous* operation (ignored for the first)."""
        self._intervals.append(issue_interval(self.l, kind))
        return self

    def extend(self, kinds: Iterable[IssueKind]) -> "IssuePlanner":
        for k in kinds:
            self.add(k)
        return self

    @property
    def operations(self) -> int:
        return len(self._intervals)

    def total_cycles(self) -> int:
        """Start-to-last-result time.

        Each operation after the first starts its dependency interval
        after its predecessor's start; the final operation runs to full
        drain (``3l+4``).  The first operation's kind carries no gap.
        """
        if not self._intervals:
            return 0
        return sum(self._intervals[1:]) + (3 * self.l + 4)


def precomputation_overlapped(l: int) -> int:
    """The paper's pre-computation count, derived from the issue model.

    Two independent multiplications at interval ``2(l+2)+1`` with the
    second's result collected after a further ``l`` drain cycles beyond
    its own issue window: ``2(2(l+2)+1) + l = 5l+10`` — exactly the
    printed formula, supporting the pipelined-issue reading.
    """
    ensure_positive("l", l)
    return 2 * (2 * (l + 2) + 1) + l


#: How each Algorithm 3 multiplication depends on its predecessor.
_ISSUE_KIND = {
    "pre": "independent",  # Mont(M, R^2): operands known
    "square": "full_drain",  # needs A in parallel
    "multiply": "stream_x",  # A streams in, M-bar stands
    "post": "full_drain",  # Mont(A, 1)
}


def exponentiation_cycles_overlapped(l: int, exponent: int) -> Tuple[int, int]:
    """(overlapped, non-overlapped) cycle totals for one exponentiation.

    Schedule: squarings need the previous value in parallel
    (``full_drain``); multiplications by the standing ``M·R`` stream the
    previous result into X (``stream_x``); the following squaring then
    needs that product in parallel again.  Pre/post are one multiplication
    each (pre independent, post full-drain).
    """
    ensure_positive("exponent", exponent)
    planner = IssuePlanner(l).extend(_ISSUE_KIND[k] for k in chain_kinds(exponent))
    overlapped = planner.total_cycles()
    non_overlapped = planner.operations * (3 * l + 4)
    return overlapped, non_overlapped
