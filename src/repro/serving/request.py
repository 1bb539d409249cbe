"""Request and result types of the modexp serving layer.

A :class:`ModExpRequest` is one unit of client work — "compute
``base^exponent mod modulus``" — plus the scheduling envelope around it:
an identifier for correlation on the wire, an optional circuit width
``l`` (to model hardware wider than the modulus), an optional
``deadline`` the batch scheduler orders by, an optional per-request
``timeout`` the worker pool enforces, and optional ``factors`` for
backends that exponentiate via the CRT.

A :class:`ModExpResult` is the uniform answer envelope: either the value
(plus the backend's cycle accounting and measured wall time) or a typed
error (``TimeoutError``, ``QueueFull``, a backend failure), never an
exception — a batch of 200 requests always yields 200 results in input
order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ParameterError
from repro.utils.validation import ensure_odd

__all__ = ["PRIORITIES", "ModExpRequest", "ModExpResult"]

#: Priority classes the overload layer understands, most urgent first.
#: ``interactive`` traffic is protected by admission reserves and is the
#: last to be shed; ``batch`` is the first.
PRIORITIES = ("interactive", "batch")


@dataclass(frozen=True)
class ModExpRequest:
    """One modular exponentiation to serve.

    Parameters
    ----------
    base, exponent, modulus:
        The operation ``base^exponent mod modulus``.  ``base`` is reduced
        into ``[0, N)`` on construction; ``exponent >= 1`` and ``modulus``
        odd ``>= 3`` (the Montgomery preconditions).
    request_id:
        Client-chosen correlation id echoed in the result (and on the
        JSON-lines wire).  Empty means "anonymous".
    l:
        Optional circuit width in bits (``0`` = the modulus bit length);
        requests only coalesce into one batch when both modulus *and*
        width match, because the pre-computed constants depend on both.
    factors:
        Optional ``(p, q)`` with ``p·q = modulus`` for CRT-capable
        backends (two half-width exponentiations).
    deadline:
        Optional urgency key; batches containing an earlier deadline
        dispatch first.  Units are whatever the caller uses consistently
        (the CLI uses seconds).
    timeout:
        Optional per-request wall-clock limit in seconds, enforced by the
        service when collecting the request's future.
    priority:
        Overload class, one of :data:`PRIORITIES` (default
        ``"batch"``).  Under pressure the admission gate and the CoDel
        shedder drop batch traffic first; interactive requests ride the
        reserved admission tokens.
    budget_s:
        Optional *relative* completion budget in seconds.  This is the
        form deadlines travel in on the JSON wire (``budget_ms``) and in
        workload traces — the service converts it to :attr:`expires_at`
        at admission time.
    expires_at:
        Optional *absolute* deadline on the ``time.monotonic()`` clock
        (system-wide on Linux, so it stays meaningful across forked
        shard workers).  Checked at admission, dequeue, and pre-execute;
        caps retry backoff.  Distinct from :attr:`deadline`, which is a
        relative urgency sort key, not a drop-dead time.
    """

    base: int
    exponent: int
    modulus: int
    request_id: str = ""
    l: int = 0
    factors: Optional[Tuple[int, int]] = None
    deadline: Optional[float] = None
    timeout: Optional[float] = None
    priority: str = "batch"
    budget_s: Optional[float] = None
    expires_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ParameterError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )
        if self.budget_s is not None and self.budget_s <= 0:
            raise ParameterError(f"budget_s must be > 0, got {self.budget_s}")
        modulus = self.modulus
        if type(modulus) is not int or modulus <= 0 or not modulus & 1:
            ensure_odd("modulus", modulus)  # raises the precise error
        if self.modulus < 3:
            raise ParameterError(f"modulus must be >= 3, got {self.modulus}")
        if self.exponent < 1:
            raise ParameterError(f"exponent must be >= 1, got {self.exponent}")
        if not isinstance(self.base, int) or isinstance(self.base, bool):
            raise ParameterError("base must be an int")
        object.__setattr__(self, "base", self.base % self.modulus)
        if self.l and self.l < self.modulus.bit_length():
            raise ParameterError(
                f"l={self.l} too small for modulus of "
                f"{self.modulus.bit_length()} bits"
            )
        if self.factors is not None:
            p, q = self.factors
            if p * q != self.modulus:
                raise ParameterError(
                    f"factors ({p}, {q}) do not multiply to modulus {self.modulus}"
                )
            if p % 2 == 0 or q % 2 == 0:
                raise ParameterError("CRT factors must both be odd")

    @property
    def width(self) -> int:
        """Effective circuit width: explicit ``l`` or the modulus bits."""
        return self.l or self.modulus.bit_length()

    @property
    def coalesce_key(self) -> Tuple[int, int]:
        """Requests sharing this key share one Montgomery pre-computation."""
        return (self.modulus, self.l)

    @property
    def shard_key(self) -> int:
        """Stable placement key for the sharded data plane.

        A digest of :attr:`coalesce_key`, so every request for one
        ``(modulus, l)`` hashes to the same ring position and therefore
        the same home shard — keeping that shard's compiled-kernel and
        Montgomery-constant caches warm for its moduli.
        """
        from repro.serving.shard import placement_key

        return placement_key(self.modulus, self.l)

    def remaining_s(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until :attr:`expires_at` (``None`` = no deadline).

        Negative once the deadline has passed — callers compare against
        zero rather than clamping, so "how late" stays observable.
        """
        if self.expires_at is None:
            return None
        return self.expires_at - (time.monotonic() if now is None else now)

    def expired(self, now: Optional[float] = None) -> bool:
        """True once the absolute deadline has passed."""
        remaining = self.remaining_s(now)
        return remaining is not None and remaining <= 0.0

    def expected(self) -> int:
        """Reference answer via CPython's ``pow`` (tests / verification)."""
        return pow(self.base, self.exponent, self.modulus)


@dataclass(frozen=True)
class ModExpResult:
    """Uniform outcome envelope for one request.

    ``ok`` distinguishes the two shapes: success carries ``value`` (and
    usually ``cycles``/``wall_us``); failure carries ``error_type`` (the
    exception class name, e.g. ``"TimeoutError"`` or ``"QueueFull"``) and
    a human-readable ``error`` message.  When the failure came with a
    flight-recorder post-mortem (a :class:`~repro.errors.FaultDetected`
    with signal-level evidence), ``bundle_path`` points at the dump.
    """

    request_id: str
    ok: bool
    value: Optional[int] = None
    error: str = ""
    error_type: str = ""
    backend: str = ""
    cycles: Optional[int] = None
    wall_us: Optional[float] = None
    batch_index: Optional[int] = field(default=None)
    bundle_path: Optional[str] = None

    @classmethod
    def success(
        cls,
        request: ModExpRequest,
        value: int,
        *,
        backend: str = "",
        cycles: Optional[int] = None,
        wall_us: Optional[float] = None,
        batch_index: Optional[int] = None,
    ) -> "ModExpResult":
        return cls(
            request_id=request.request_id,
            ok=True,
            value=value,
            backend=backend,
            cycles=cycles,
            wall_us=wall_us,
            batch_index=batch_index,
        )

    @classmethod
    def failure(
        cls,
        request_id: str,
        exc: BaseException,
        *,
        backend: str = "",
        batch_index: Optional[int] = None,
    ) -> "ModExpResult":
        return cls(
            request_id=request_id,
            ok=False,
            error=str(exc) or type(exc).__name__,
            error_type=type(exc).__name__,
            backend=backend,
            batch_index=batch_index,
            bundle_path=getattr(exc, "bundle_path", None),
        )
