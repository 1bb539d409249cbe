"""Graceful degradation under overload: admit, shed, brown out.

The shard plane (PR 9) gave the service throughput; this module defends
it when offered load exceeds capacity.
The ladder, cheapest lever first:

1. **Admission control** — a :class:`TokenBucket` in front of the
   scheduler.  Tokens refill at the configured sustainable rate; a
   reserve fraction is only spendable by interactive traffic, so a batch
   burst can never starve the urgent class.  Refused requests fail fast
   with :class:`~repro.errors.RequestShed` (a ``QueueFull`` subclass —
   clients already know how to back off from those).
2. **Adaptive shedding** — a :class:`CoDelShedder` watching queue
   *sojourn* (admission → dispatch delay), the CoDel law: once delay
   stays over ``target_s`` for a full ``interval_s``, start dropping
   batch-class requests, next drop at ``interval / sqrt(drop_count)``
   so the drop rate tracks how persistently the queue is standing.
3. **Brownout** — a :class:`BrownoutController` integrating queue
   pressure into discrete levels 0–3: step down verify sampling, reroute
   lane groups to cheaper capable backends, and finally suspend batch
   admission entirely — all before a single interactive request is
   refused.

A slow-but-alive shard is not an overload lever: the multiplier's
cycle count per product is fixed, so a request far past its modelled
time means a wedged worker, and the shard health machine
(:mod:`repro.serving.health`) recycles it and requeues its work.

Everything here is policy — pure, clock-injectable, independently
testable.  :class:`~repro.serving.service.ModExpService` wires the
mechanisms through its dispatch/collect path when given an
:class:`OverloadConfig`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ParameterError
from repro.observability import OBS
from repro.serving.request import PRIORITIES

__all__ = [
    "OverloadConfig",
    "TokenBucket",
    "CoDelShedder",
    "BrownoutController",
]


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of the graceful-degradation ladder (all levers optional).

    ``admit_rate`` (requests/second) turns on the token bucket;
    ``shed_target_s`` / ``shed_interval_s`` tune the CoDel shedder
    (always on once an ``OverloadConfig`` is given — shedding only ever
    drops batch-class traffic); ``brownout=True`` arms the pressure
    controller.
    ``default_budget_s`` stamps a deadline on requests that arrive
    without one (per priority class via ``interactive_budget_s``).
    """

    admit_rate: Optional[float] = None
    admit_burst: Optional[float] = None  # default: 2 × admit_rate
    interactive_reserve: float = 0.25
    shed_target_s: float = 0.05
    shed_interval_s: float = 0.5
    brownout: bool = False
    brownout_high: float = 0.75
    brownout_low: float = 0.25
    brownout_dwell_s: float = 0.25
    default_budget_s: Optional[float] = None
    interactive_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.admit_rate is not None and self.admit_rate <= 0:
            raise ParameterError(f"admit_rate must be > 0, got {self.admit_rate}")
        if self.admit_burst is not None and self.admit_burst <= 0:
            raise ParameterError(f"admit_burst must be > 0, got {self.admit_burst}")
        if not 0.0 <= self.interactive_reserve < 1.0:
            raise ParameterError(
                f"interactive_reserve must be in [0, 1), got {self.interactive_reserve}"
            )
        if self.shed_target_s <= 0 or self.shed_interval_s <= 0:
            raise ParameterError(
                "shed_target_s and shed_interval_s must be > 0, got "
                f"{self.shed_target_s}/{self.shed_interval_s}"
            )
        if not 0.0 <= self.brownout_low < self.brownout_high <= 1.0:
            raise ParameterError(
                "need 0 <= brownout_low < brownout_high <= 1, got "
                f"{self.brownout_low}/{self.brownout_high}"
            )
        for name in ("default_budget_s", "interactive_budget_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ParameterError(f"{name} must be > 0, got {value}")

    def budget_for(self, priority: str) -> Optional[float]:
        """Default completion budget for one priority class."""
        if priority == "interactive" and self.interactive_budget_s is not None:
            return self.interactive_budget_s
        return self.default_budget_s


class TokenBucket:
    """Priority-aware admission gate: refill at ``rate``, cap at ``burst``.

    The bottom ``reserve`` fraction of the bucket is spendable only by
    interactive traffic — batch requests are refused once the level
    drops to the reserve line, so a batch flood leaves the urgent class
    a protected slice of the sustainable rate.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        *,
        reserve: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ParameterError(f"rate must be > 0, got {rate}")
        self.rate = rate
        self.burst = burst if burst is not None else 2.0 * rate
        if self.burst <= 0:
            raise ParameterError(f"burst must be > 0, got {self.burst}")
        if not 0.0 <= reserve < 1.0:
            raise ParameterError(f"reserve must be in [0, 1), got {reserve}")
        self.reserve = reserve
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._refilled_at = clock()

    def _refill_locked(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._refilled_at = now

    @property
    def level(self) -> float:
        """Current fill fraction in ``[0, 1]`` (a dashboard gauge)."""
        with self._lock:
            self._refill_locked(self._clock())
            return self._tokens / self.burst

    def try_admit(self, priority: str = "batch", tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if the class's floor allows it."""
        if priority not in PRIORITIES:
            raise ParameterError(f"unknown priority {priority!r}")
        floor = 0.0 if priority == "interactive" else self.reserve * self.burst
        with self._lock:
            self._refill_locked(self._clock())
            if self._tokens - tokens < floor - 1e-12:
                return False
            self._tokens -= tokens
            return True


class CoDelShedder:
    """CoDel-style shedding on queue sojourn time.

    Classic controlled-delay law adapted from packet queues to request
    admission: sojourn under ``target_s`` is healthy no matter how deep
    the queue is; sojourn continuously *over* target for ``interval_s``
    means the queue is standing, and we start shedding — the next shed
    arriving at ``interval / sqrt(count)`` so persistent overload sheds
    at an accelerating rate and transient bursts shed barely at all.
    Only batch-class requests are ever offered to :meth:`offer`.
    """

    def __init__(
        self,
        target_s: float = 0.05,
        interval_s: float = 0.5,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if target_s <= 0 or interval_s <= 0:
            raise ParameterError(
                f"target_s and interval_s must be > 0, got {target_s}/{interval_s}"
            )
        self.target_s = target_s
        self.interval_s = interval_s
        self._clock = clock
        self._lock = threading.Lock()
        self._first_above: Optional[float] = None  # when sojourn first crossed
        self._dropping = False
        self._drop_next = 0.0
        self._count = 0  # drops this dropping episode

    @property
    def dropping(self) -> bool:
        with self._lock:
            return self._dropping

    def offer(self, sojourn_s: float) -> bool:
        """Report one request's queue delay; True = shed this request."""
        now = self._clock()
        with self._lock:
            if sojourn_s < self.target_s:
                # Queue drained below target: leave dropping state.
                self._first_above = None
                self._dropping = False
                return False
            if self._first_above is None:
                self._first_above = now + self.interval_s
                return False
            if not self._dropping:
                if now < self._first_above:
                    return False  # above target, but not yet for a full interval
                self._dropping = True
                # Resume near the previous episode's rate when the queue
                # re-stands quickly, per the CoDel recommendation.
                self._count = max(self._count - 2, 1)
                self._drop_next = now + self.interval_s / math.sqrt(self._count)
                return True
            if now >= self._drop_next:
                self._count += 1
                self._drop_next = now + self.interval_s / math.sqrt(self._count)
                return True
            return False


#: Brownout levels, mildest first.  Each level keeps every lever of the
#: previous ones engaged.
BROWNOUT_LEVELS = (
    "normal",          # 0 — full service
    "verify-sampled",  # 1 — verify sampling stepped down to 1/4
    "cheap-backends",  # 2 — + lane groups rerouted to cheaper backends
    "batch-suspended", # 3 — + batch-class admission suspended
)

#: Verify-sampling multiplier per brownout level (level 3 keeps a
#: trickle so ``silent_corruptions == 0`` stays a checkable claim).
_VERIFY_SCALE = (1.0, 0.25, 0.1, 0.05)


class BrownoutController:
    """Integrate queue pressure into discrete degradation levels.

    ``update(pressure)`` feeds an EWMA of instantaneous pressure (0 =
    idle, 1 = the in-flight window is full); crossing ``high`` steps one
    level up, falling under ``low`` steps one level down, and ``dwell_s``
    of hysteresis keeps the controller from flapping on every burst.
    Transitions are counted (``serving.brownout_transitions{to=}``) and
    the level is exported as the ``serving.brownout_level`` gauge.
    """

    def __init__(
        self,
        *,
        high: float = 0.75,
        low: float = 0.25,
        dwell_s: float = 0.25,
        alpha: float = 0.3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 <= low < high <= 1.0:
            raise ParameterError(f"need 0 <= low < high <= 1, got {low}/{high}")
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
        if dwell_s < 0:
            raise ParameterError(f"dwell_s must be >= 0, got {dwell_s}")
        self.high = high
        self.low = low
        self.dwell_s = dwell_s
        self.alpha = alpha
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._pressure = 0.0
        self._moved_at = -math.inf

    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    @property
    def level_name(self) -> str:
        return BROWNOUT_LEVELS[self.level]

    @property
    def pressure(self) -> float:
        with self._lock:
            return self._pressure

    def verify_scale(self) -> float:
        """Multiplier for the verify policy's sampling rate at this level."""
        return _VERIFY_SCALE[self.level]

    @property
    def reroute_cheap(self) -> bool:
        """Should lane groups fail over to cheaper capable backends?"""
        return self.level >= 2

    @property
    def batch_suspended(self) -> bool:
        """Is batch-class admission suspended outright?"""
        return self.level >= 3

    def update(self, pressure: float) -> int:
        """Fold one pressure sample in; returns the (possibly new) level."""
        pressure = min(max(pressure, 0.0), 1.0)
        now = self._clock()
        with self._lock:
            self._pressure += self.alpha * (pressure - self._pressure)
            if now - self._moved_at >= self.dwell_s:
                if self._pressure >= self.high and self._level < 3:
                    self._step_locked(self._level + 1, now)
                elif self._pressure <= self.low and self._level > 0:
                    self._step_locked(self._level - 1, now)
            if OBS.enabled:
                OBS.gauge("serving.brownout_pressure", self._pressure)
            return self._level

    def _step_locked(self, to: int, now: float) -> None:
        self._level = to
        self._moved_at = now
        if OBS.enabled:
            OBS.gauge("serving.brownout_level", to)
            OBS.count("serving.brownout_transitions", to=BROWNOUT_LEVELS[to])
