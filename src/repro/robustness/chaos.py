"""Deterministic chaos middleware for the serving stack.

Recovery code that has never seen a failure is decorative.  This module
makes failures a reproducible input: a :class:`ChaosConfig` (a frozen,
picklable value object that travels to shard workers) seeds a
:class:`FaultPlan`, and the plan decides — purely from
``(seed, request_id, attempt)`` — whether a given execution attempt is
killed, poisoned with an exception, delayed, or has a bit flipped in its
result or in a gate-level register.  Same seed, same drill, same story
in the Perfetto trace.

Fault kinds, drawn first-match-wins in this order:

* ``kill`` — the worker process calls ``os._exit`` mid-request,
  killing its shard; exercises respawn + requeue.  Only honoured when
  the caller passes ``allow_kill=True`` (shard workers); on the inline
  plane a kill would take the service down, so the plan degrades it to
  an exception.
* ``exception`` — raises :class:`~repro.errors.InjectedFault`;
  exercises retry, breaker accounting, failover.
* ``latency`` — sleeps ``latency_s``; exercises timeouts, SLO
  violations, and the pool's slot-release-on-timeout path.
* ``bitflip`` — XORs one bit into the backend's result (or, for
  netlist backends, flips a real register DFF mid-multiplication via
  :meth:`GateLevelMMMC.schedule_fault`); exercises online verification.
  A bitflip is *silent* by construction — recovery must come from
  :mod:`repro.robustness.verify`, not from an exception.
* ``stuck`` — the worker sleeps ``stuck_s`` mid-request: alive, not
  answering.  Distinct from ``latency`` (sized to blow timeouts rather
  than SLOs); exercises the shard health machine's stuck detection and
  graceful drain instead of the death path.

Separately from per-request faults, **frame faults** target the shard
wire itself, decided per ``(batch_id, attempt)`` by
:meth:`FaultPlan.decide_frame` and applied by the shard worker around
its result send: ``slow_frame`` delays the write by ``stuck_s``,
``corrupt_frame`` XORs a byte mid-payload and ``truncate_frame`` sends
only a prefix.  Both corruption kinds must surface as *degradation* of
the shard (the pipe's message boundaries survive a bad payload), never
as silent wrong answers — exercising exactly the degrade-not-kill
recovery path.

``attempt`` is part of the RNG key so a request that was killed on
attempt 0 is not deterministically killed again on its retry — rates
compose per attempt, like real hardware.

``target_prefix`` marks "storm" requests: any request whose id starts
with the prefix always draws an injected exception on attempt 0 (and
only attempt 0, so retries still succeed).  Drills use it to open a
circuit breaker on demand with a burst of consecutive failures, which
random sub-10% rates would essentially never produce.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import InjectedFault, ParameterError
from repro.observability import OBS

__all__ = [
    "FAULT_KINDS",
    "FRAME_FAULT_KINDS",
    "ChaosConfig",
    "FaultDecision",
    "FaultPlan",
]

#: Per-request fault kinds.  ``stuck`` is drawn last so adding it keeps
#: every existing seed's kill/exception/latency/bitflip decisions
#: byte-identical (the draw is one uniform against cumulative bounds).
FAULT_KINDS = ("kill", "exception", "latency", "bitflip", "stuck")

#: Per-batch faults on the shard wire (result-frame writes).
FRAME_FAULT_KINDS = ("slow_frame", "corrupt_frame", "truncate_frame")


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection rates.  Frozen and picklable by design —
    the same object is hashed into worker-side plans.

    Rates are independent per-attempt probabilities in ``[0, 1]``;
    at most one fault fires per attempt (first match in
    :data:`FAULT_KINDS` order wins).
    """

    seed: int = 0
    worker_kill_rate: float = 0.0
    exception_rate: float = 0.0
    latency_rate: float = 0.0
    latency_s: float = 0.05
    bitflip_rate: float = 0.0
    stuck_rate: float = 0.0
    stuck_s: float = 1.0
    slow_frame_rate: float = 0.0
    corrupt_frame_rate: float = 0.0
    truncate_frame_rate: float = 0.0
    register_faults: bool = True
    target_prefix: str = ""
    # Flight-recorder auto-arm: when set, chaos bit-flips (and retries of
    # verify failures) run with an armed black box whose post-mortem
    # bundles land in this directory.  Travels to workers like the rest
    # of the config; the executor builds a process-local hub from it.
    flightrec_dir: Optional[str] = None
    flightrec_pre: int = 48
    flightrec_post: int = 16
    # Pre-trigger ring decimation: the black box samples every 4th cycle
    # until a fault fires, then densely — keeps always-on capture under
    # the serving overhead budget (the post-mortem window around the
    # trigger is full rate either way).
    flightrec_stride: int = 4

    def __post_init__(self) -> None:
        for name in (
            "worker_kill_rate",
            "exception_rate",
            "latency_rate",
            "bitflip_rate",
            "stuck_rate",
            "slow_frame_rate",
            "corrupt_frame_rate",
            "truncate_frame_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_s < 0:
            raise ParameterError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.stuck_s < 0:
            raise ParameterError(f"stuck_s must be >= 0, got {self.stuck_s}")
        total = (
            self.worker_kill_rate
            + self.exception_rate
            + self.latency_rate
            + self.bitflip_rate
            + self.stuck_rate
        )
        if total > 1.0:
            # The decision is one uniform draw against cumulative
            # thresholds; rates summing past 1 would silently truncate
            # the later kinds.
            raise ParameterError(f"fault rates sum to {total}, must be <= 1")
        frame_total = (
            self.slow_frame_rate + self.corrupt_frame_rate + self.truncate_frame_rate
        )
        if frame_total > 1.0:
            raise ParameterError(
                f"frame fault rates sum to {frame_total}, must be <= 1"
            )
        if self.flightrec_pre < 1 or self.flightrec_post < 0:
            raise ParameterError(
                f"flightrec window needs pre >= 1, post >= 0; got "
                f"{self.flightrec_pre}/{self.flightrec_post}"
            )
        if self.flightrec_stride < 1:
            raise ParameterError(
                f"flightrec_stride must be >= 1, got {self.flightrec_stride}"
            )

    def make_flightrec_hub(self):
        """A :class:`~repro.observability.flightrec.FlightRecorderHub` for
        this config's dump directory, or ``None`` when recording is off.

        Called executor-side (possibly in a shard worker) right before a
        run that should be captured; fault events fire the recorder, so no
        explicit trigger list is needed.
        """
        if not self.flightrec_dir:
            return None
        from repro.observability.flightrec import FlightRecorderHub

        return FlightRecorderHub(
            dump_dir=self.flightrec_dir,
            pre=self.flightrec_pre,
            post=self.flightrec_post,
            fire_on_fault=True,
            ring_stride=self.flightrec_stride,
        )

    @property
    def active(self) -> bool:
        return bool(
            self.worker_kill_rate
            or self.exception_rate
            or self.latency_rate
            or self.bitflip_rate
            or self.stuck_rate
            or self.target_prefix
            or self.frame_faults_active
        )

    @property
    def frame_faults_active(self) -> bool:
        return bool(
            self.slow_frame_rate
            or self.corrupt_frame_rate
            or self.truncate_frame_rate
        )


@dataclass(frozen=True)
class FaultDecision:
    """What the plan chose for one ``(request, attempt)``.

    ``kind`` is one of :data:`FAULT_KINDS` or ``None`` (no fault).
    ``bit`` is the bit index to flip for ``bitflip`` decisions; the
    executor reduces it modulo the width of whatever it is flipping.
    """

    kind: Optional[str] = None
    bit: int = 0

    def __bool__(self) -> bool:
        return self.kind is not None


class FaultPlan:
    """Pure function of ``(config, request_id, attempt)`` → decision."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config

    def decide(self, request_id: str, attempt: int = 0, *, allow_kill: bool = True) -> FaultDecision:
        cfg = self.config
        if not cfg.active:
            return FaultDecision()
        if cfg.target_prefix and str(request_id).startswith(cfg.target_prefix):
            # Storm request: guaranteed failure on the first attempt so a
            # burst of them opens a breaker; retries run clean.
            return FaultDecision(kind="exception") if attempt == 0 else FaultDecision()
        rng = random.Random(f"chaos|{cfg.seed}|{request_id}|{attempt}")
        draw = rng.random()
        threshold = cfg.worker_kill_rate
        if draw < threshold:
            if allow_kill:
                return FaultDecision(kind="kill")
            return FaultDecision(kind="exception")
        threshold += cfg.exception_rate
        if draw < threshold:
            return FaultDecision(kind="exception")
        threshold += cfg.latency_rate
        if draw < threshold:
            return FaultDecision(kind="latency")
        threshold += cfg.bitflip_rate
        if draw < threshold:
            return FaultDecision(kind="bitflip", bit=rng.getrandbits(16))
        threshold += cfg.stuck_rate
        if draw < threshold:
            return FaultDecision(kind="stuck")
        return FaultDecision()

    def decide_frame(self, batch_id: int, attempt: int = 0) -> FaultDecision:
        """Frame-level fault for one result-frame write.

        Keyed on ``(seed, batch_id, attempt)`` — independent of the
        per-request plan, so a drill can corrupt the wire without
        perturbing request-level decisions.  ``bit`` doubles as the
        byte-position seed for ``corrupt_frame`` / ``truncate_frame``.
        """
        cfg = self.config
        if not cfg.frame_faults_active:
            return FaultDecision()
        rng = random.Random(f"chaos-frame|{cfg.seed}|{batch_id}|{attempt}")
        draw = rng.random()
        threshold = cfg.slow_frame_rate
        if draw < threshold:
            return FaultDecision(kind="slow_frame")
        threshold += cfg.corrupt_frame_rate
        if draw < threshold:
            return FaultDecision(kind="corrupt_frame", bit=rng.getrandbits(24))
        threshold += cfg.truncate_frame_rate
        if draw < threshold:
            return FaultDecision(kind="truncate_frame", bit=rng.getrandbits(24))
        return FaultDecision()

    def mangle_frame(self, decision: FaultDecision, frame: bytes) -> bytes:
        """Apply a frame-fault decision to an outbound frame's bytes.

        ``corrupt_frame`` XORs one byte past the 9-byte kind+batch-id
        header (the receiver must still be able to requeue *that* batch,
        which is the realistic partial-corruption case); a
        ``truncate_frame`` keeps only a prefix — at least the header —
        modelling a writer dying mid-``send``.  ``slow_frame`` is
        handled by the caller (a sleep has no byte-level effect).
        """
        if decision.kind == "corrupt_frame" and len(frame) > 9:
            OBS.count("chaos.injected", kind="corrupt_frame")
            pos = 9 + decision.bit % (len(frame) - 9)
            mangled = bytearray(frame)
            mangled[pos] ^= 0xFF
            return bytes(mangled)
        if decision.kind == "truncate_frame" and len(frame) > 9:
            OBS.count("chaos.injected", kind="truncate_frame")
            keep = 9 + decision.bit % (len(frame) - 9)
            return frame[:keep]
        return frame

    def apply_pre(self, decision: FaultDecision, request_id: str) -> None:
        """Execute the pre-backend side of ``decision`` (kill / exception /
        latency).  Bitflips are applied by the backend executor because
        they need the result or a live simulator.
        """
        if not decision:
            return
        if decision.kind == "kill":
            OBS.count("chaos.injected", kind="kill")
            # Flush nothing, skip atexit/finally: this models a hard
            # worker crash (OOM-kill, segfault), not a clean exit.
            os._exit(17)
        if decision.kind == "exception":
            OBS.count("chaos.injected", kind="exception")
            raise InjectedFault(f"chaos: injected backend exception for {request_id}")
        if decision.kind == "latency":
            OBS.count("chaos.injected", kind="latency")
            time.sleep(self.config.latency_s)
        if decision.kind == "stuck":
            # Alive but wedged: long enough to trip stuck detection, which
            # recycles the worker and requeues the request with its attempt
            # bumped; short enough that a drill still terminates.
            OBS.count("chaos.injected", kind="stuck")
            time.sleep(self.config.stuck_s)
        if decision.kind == "slow_frame":
            OBS.count("chaos.injected", kind="slow_frame")
            time.sleep(self.config.stuck_s)

    def corrupt_result(self, decision: FaultDecision, value: int, modulus: int) -> int:
        """Apply a ``bitflip`` decision to a finished integer result.

        Used by backends with no register-level hook (integer, CRT): the
        flip lands in one of the result's ``modulus``-width bits, which
        may push the value outside ``[0, N)`` — exactly like an upset in
        an output register after the final reduction.
        """
        if decision.kind != "bitflip":
            return value
        OBS.count("chaos.injected", kind="bitflip")
        width = max(modulus.bit_length(), 1)
        return value ^ (1 << (decision.bit % width))
