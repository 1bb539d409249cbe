"""Batch scheduler: coalesce by batch key, dispatch by deadline and cost.

Montgomery exponentiation pays a fixed pre-computation per modulus —
``R``, ``R² mod N`` and ``N'`` (a modular squaring plus an inversion).
A naive service repeats it for every request; the scheduler instead
groups pending requests into :class:`Batch` objects by a **batch key**
(:func:`batch_key`), derives the constants **once per distinct
``(modulus, l)``** through the shared
:func:`~repro.montgomery.params.precompute_montgomery_constants` cache,
and attaches each request's context to the batch so workers never touch
the cache at all.

The batch key is the one decision of how far a batch may reach.  Most
backends take ``(modulus, l)``, so a batch holds one modulus.  The
lock-step lane backends (``capabilities.lanes > 1`` without
``mixed_exponent_lanes``: the compiled ``rtl`` backend)
take the operand width: their bit-sliced sweep loads ``N`` per lane, the
way the paper's MMMC loads ``N`` per multiplication, so one sweep serves
every modulus of one width.  The shard ring homes batches by the same
key.

Dispatch order is interactive-first, then earliest-deadline-first, ties
broken by estimated backend cost (cheap batches first, so a long
simulation batch cannot convoy short integer batches with equal
urgency).  A batch containing any interactive-priority request outranks
every pure-batch one — under overload the dispatch queue is where
interactive latency is won or lost.

Metrics (when observation is enabled):

* ``serving.batches`` — batches formed;
* ``serving.batch_size`` — histogram of requests per batch;
* ``serving.coalesced_precomputes`` — one per distinct ``(modulus, l)``
  per coalescing round, i.e. the number of pre-computations actually
  needed (compare with ``serving.requests`` to see the savings);
* ``serving.coalesce_group_size`` — requests per distinct
  ``(modulus, l)`` per round.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple, TypeVar, Union

from repro.montgomery.params import (
    MontgomeryContext,
    precompute_montgomery_constants,
)
from repro.observability import OBS
from repro.serving.backends import BackendCapabilities, ModExpBackend
from repro.serving.request import ModExpRequest

__all__ = ["Batch", "BatchKey", "batch_key", "coalesce", "lane_groups"]

T = TypeVar("T")

#: A batch key: the operand width for lock-step lane backends, else
#: ``(modulus, l)``.
BatchKey = Union[int, Tuple[int, int]]


def batch_key(capabilities: BackendCapabilities, request: ModExpRequest) -> BatchKey:
    """The key that decides which requests may share one batch.

    A lock-step lane backend (``lanes > 1``, not ``mixed_exponent_lanes``)
    sweeps every lane with its own ``N``, so its batches span every
    modulus of one operand width: the key is ``request.width``.  Every
    other backend executes one Montgomery context per call (the chip
    drives one modulus through its tiles), so the key stays
    ``request.coalesce_key``.
    """
    if capabilities.lanes > 1 and not capabilities.mixed_exponent_lanes:
        return request.width
    return request.coalesce_key


def lane_groups(
    items: Sequence[T],
    lanes: int,
    *,
    mixed: bool = False,
    exponent_of: Callable[[T], Any] = lambda item: item.exponent,
) -> List[List[T]]:
    """Partition one batch's items into lane-packable groups.

    Bit-sliced lane packing needs a shared square-and-multiply schedule,
    so only requests with identical exponents share a group; groups are
    capped at the backend's lane width.  Backends declaring
    ``capabilities.mixed_exponent_lanes`` (the chip, which interleaves
    independent chains instead of lock-stepping lanes) group the whole
    batch regardless of exponent.  Order within a group follows batch
    order.

    :func:`repro.serving.pool.execute_batch` and the netlist backends'
    ``execute_many`` group request positions via ``exponent_of``, so
    their results stay in request order.
    """
    by_exponent: Dict[Any, List[T]] = {}
    for item in items:
        key = None if mixed else exponent_of(item)
        by_exponent.setdefault(key, []).append(item)
    groups: List[List[T]] = []
    for members in by_exponent.values():
        for lo in range(0, len(members), lanes):
            groups.append(members[lo : lo + lanes])
    return groups


@dataclass
class Batch:
    """Requests sharing one :func:`batch_key`.

    ``contexts[i]`` is the pre-computed parameter set of
    ``requests[i]``; requests of one ``(modulus, l)`` share one context
    object.  ``estimated_cost`` is the backend's cost estimate summed
    over the batch (the dispatch tie-breaker).
    """

    index: int
    key: BatchKey
    requests: List[ModExpRequest] = field(default_factory=list)
    contexts: List[MontgomeryContext] = field(default_factory=list)
    estimated_cost: float = 0.0

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def deadline(self) -> float:
        """Earliest deadline in the batch (``inf`` when none set)."""
        deadlines = [r.deadline for r in self.requests if r.deadline is not None]
        return min(deadlines) if deadlines else math.inf

    @property
    def priority_rank(self) -> int:
        """0 when any request is interactive, 1 otherwise.

        The primary dispatch key: under overload the queue in front of
        the pool is exactly where interactive latency is won or lost, so
        a batch carrying interactive traffic jumps every pure-batch one
        regardless of deadlines.
        """
        return 0 if any(r.priority == "interactive" for r in self.requests) else 1


def coalesce(
    requests: Sequence[ModExpRequest],
    backend: ModExpBackend,
    *,
    max_batch: int = 0,
    start_index: int = 0,
) -> List[Batch]:
    """Group ``requests`` into batches by :func:`batch_key`, dispatch-ordered.

    One Montgomery pre-computation happens here per distinct
    ``(modulus, l)``, however many requests or batches share it.  Groups
    larger than ``max_batch`` (when positive) are split into chunks.
    Returned batches are sorted by ``(deadline, estimated_cost)`` and
    re-indexed from ``start_index``.
    """
    caps = backend.capabilities
    groups: Dict[BatchKey, List[ModExpRequest]] = {}
    contexts: Dict[Tuple[int, int], MontgomeryContext] = {}
    for request in requests:
        key = request.coalesce_key
        if key not in contexts:
            contexts[key] = precompute_montgomery_constants(*key)
        groups.setdefault(batch_key(caps, request), []).append(request)

    if OBS.enabled:
        shares = Counter(request.coalesce_key for request in requests)
        for count in shares.values():
            OBS.count("serving.coalesced_precomputes")
            # How much sharing each distinct (modulus, l) key actually
            # yields on this traffic mix.
            OBS.record("serving.coalesce_group_size", count)

    batches: List[Batch] = []
    for key, grouped in groups.items():
        chunk = max_batch if max_batch > 0 else len(grouped)
        for lo in range(0, len(grouped), chunk):
            part = grouped[lo : lo + chunk]
            batches.append(
                Batch(
                    index=0,  # assigned after sorting
                    key=key,
                    requests=part,
                    contexts=[contexts[r.coalesce_key] for r in part],
                    estimated_cost=sum(backend.estimate_cost(r) for r in part),
                )
            )

    batches.sort(key=lambda b: (b.priority_rank, b.deadline, b.estimated_cost))
    for offset, batch in enumerate(batches):
        batch.index = start_index + offset
        if OBS.enabled:
            OBS.count("serving.batches")
            OBS.record("serving.batch_size", batch.size)
    return batches

