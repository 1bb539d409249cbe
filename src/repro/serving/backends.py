"""The backend registry: every modexp engine behind one protocol.

The serving layer computes ``base^exponent mod N`` six ways — the
pure-integer Algorithm 2 fast path, CRT-RSA, the cycle-accurate systolic
MMMC (its gate-level netlist on compiled kernels), word-based high-radix
software, the Tenca–Koç word-serial model and the multi-array chip — and
treats them as interchangeable :class:`ModExpBackend` implementations,
each declaring :class:`BackendCapabilities` (operand-width ceiling,
whether its cycle counts are measured or modelled, whether it is safe to
ship to process workers) and a cost model the batch scheduler orders
dispatch by.

Every backend that issues Montgomery products runs the one Algorithm 3
chain, :func:`~repro.montgomery.exponent.modexp_chain`, with its own
multiplier.  The netlist backend, ``rtl``, runs every request — lone,
lane group or chaos register fault — through one routine,
:meth:`RTLBackend._exponentiate`.

All backends receive each request's pre-computed
:class:`~repro.montgomery.params.MontgomeryContext`, derived once per
distinct ``(modulus, l)`` per coalescing round, never per request (see
:mod:`repro.serving.scheduler`).

The :func:`default_registry` registers everything under its canonical
name; worker processes re-resolve backends by name through it, so only
*custom* backends (tests, experiments) are restricted to thread/inline
pools.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional

from repro.errors import FaultDetected, ParameterError
from repro.montgomery.exponent import chain_kinds, modexp_chain, run_chain
from repro.montgomery.params import (
    MontgomeryContext,
    precompute_montgomery_constants,
)
from repro.robustness.verify import walter_bound_ok
from repro.serving.request import ModExpRequest
from repro.systolic.timing import mmm_cycles_corrected

__all__ = [
    "BackendCapabilities",
    "BackendResult",
    "ModExpBackend",
    "BackendRegistry",
    "default_registry",
    "IntegerBackend",
    "CRTBackend",
    "RTLBackend",
    "HighRadixBackend",
    "ScalableBackend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can serve and how its costs should be read.

    Attributes
    ----------
    description:
        One-line summary for ``repro backends`` and the docs matrix.
    max_bits:
        Operand-width ceiling (``None`` = unbounded).  The simulators are
        capped where a single exponentiation stays interactive.
    cycle_accurate:
        True when reported cycles are measured (netlist, chip) or proven equal
        to measured (the golden accounting); False when modelled.
    simulator:
        True for backends that step a hardware model cycle by cycle.
    requires_factors:
        True when requests must carry ``factors=(p, q)``.
    lanes:
        Bit-sliced lane width (``1`` = scalar only).  When greater than 1
        the service hands :meth:`ModExpBackend.execute_many` whole groups
        of same-exponent requests of one operand width, possibly under
        several moduli, which the backend packs as bit-slices of one
        netlist sweep with ``N`` loaded per lane (see
        :meth:`~repro.systolic.mmmc_netlist.GateLevelMMMC.multiply_slots`).
        Such a backend's batches are cut by width, not by modulus (see
        :func:`repro.serving.scheduler.batch_key`).
    mixed_exponent_lanes:
        True when ``execute_many`` groups need *not* share an exponent.
        Bit-sliced sweeps advance every lane in lock-step, so they demand
        a common square-and-multiply schedule; the chip backend instead
        interleaves independent multiplication chains over one modulus,
        so the service batches it by ``(modulus, l)`` and may pack any
        requests of one batch into a group.
    """

    description: str
    max_bits: Optional[int] = None
    cycle_accurate: bool = True
    simulator: bool = False
    requires_factors: bool = False
    lanes: int = 1
    mixed_exponent_lanes: bool = False


@dataclass(frozen=True)
class BackendResult:
    """Value plus the backend's cycle accounting for one request."""

    value: int
    cycles: Optional[int] = None


class ModExpBackend(ABC):
    """One modular-exponentiation engine behind the serving layer.

    Subclasses set ``name`` and ``capabilities`` and implement
    :meth:`estimate_cost` / :meth:`execute`.  ``execute`` may assume the
    request passed :meth:`reject_reason` (the service checks before
    dispatch).
    """

    name: str = ""
    capabilities: BackendCapabilities

    #: Rough wall-time per modelled cycle *relative to the integer
    #: backend* — simulators pay orders of magnitude more per cycle, and
    #: the scheduler's cost ordering should reflect wall time, not only
    #: the hardware cycle count.
    wall_weight: float = 1.0

    def reject_reason(self, request: ModExpRequest) -> Optional[str]:
        """Why this backend cannot serve ``request`` (``None`` = it can)."""
        caps = self.capabilities
        if caps.max_bits is not None and request.width > caps.max_bits:
            return (
                f"operand width {request.width} exceeds backend "
                f"{self.name!r} limit of {caps.max_bits} bits"
            )
        if caps.requires_factors and request.factors is None:
            return f"backend {self.name!r} needs factors=(p, q) on the request"
        return None

    def estimate_cost(self, request: ModExpRequest) -> float:
        """Scheduler cost: modelled cycles weighted by wall-time factor."""
        return self.model_cycles(request) * self.wall_weight

    def model_cycles(self, request: ModExpRequest) -> float:
        """Expected hardware cycles for one exponentiation.

        Default model: square-and-multiply issues ``~1.5·t + 1``
        multiplications for a ``t``-bit exponent (pre/post included), each
        costing the corrected array latency.
        """
        mults = 1.5 * request.exponent.bit_length() + 1
        return mmm_cycles_corrected(request.width) * mults

    @abstractmethod
    def execute(
        self, ctx: MontgomeryContext, request: ModExpRequest
    ) -> BackendResult:
        """Run the exponentiation with the request's constants ``ctx``."""

    def execute_many(
        self, contexts: List[MontgomeryContext], requests: List[ModExpRequest]
    ) -> List[BackendResult]:
        """Run several requests; ``contexts[i]`` is ``requests[i]``'s context.

        The service calls this (instead of per-request :meth:`execute`
        tasks) for backends declaring ``capabilities.lanes > 1``, passing
        one lane group of one coalesced batch: requests sharing the
        batch key (:func:`repro.serving.scheduler.batch_key`), so one
        ``(modulus, l)`` for most backends and one operand width for the
        lock-step lane backends.  The default runs them sequentially;
        lane-capable backends override it to pack same-exponent requests
        into one bit-sliced sweep.  Results come back in input order.
        """
        return [self.execute(ctx, request) for ctx, request in zip(contexts, requests)]


def _walter_checked(t: int, n: int, lane: Optional[int] = None) -> int:
    """``t``, once it passes Walter's ``T < 2N`` bound for modulus ``n``.

    The invariant the paper's ``R > 4N`` choice guarantees for every
    intermediate product; a register upset that pushes a product out of
    range fails loudly (:class:`~repro.errors.FaultDetected`) in the
    worker instead of propagating into a silently wrong result.
    """
    if not walter_bound_ok(t, n):
        where = "" if lane is None else f"lane {lane}: "
        raise FaultDetected(
            f"{where}Montgomery product {t} outside [0, {2 * n}) — Walter "
            "T < 2N invariant violated mid-exponentiation",
            check="walter-bound",
        )
    return t


@lru_cache(maxsize=256)
def _golden_exponentiator(ctx: MontgomeryContext):
    """The golden exponentiator over ``ctx``, built once per context.

    Keyed by the whole (frozen) context, so two contexts that differ in
    any constant never share one, and a request skips the exponentiator's
    set-up.  Its one mutable field, the running ``cycles`` total, is
    never read on this path.
    """
    from repro.systolic.exponentiator import ModularExponentiator

    return ModularExponentiator(ctx, engine="golden")


@lru_cache(maxsize=256)
def _garner_coefficient(p: int, q: int) -> int:
    """``q⁻¹ mod p``, the CRT recombination constant of one key."""
    return pow(q, -1, p)


# ----------------------------------------------------------------------
# Concrete backends
# ----------------------------------------------------------------------
class IntegerBackend(ModExpBackend):
    """Closed-form Algorithm 2 with the proven RTL cycle accounting.

    The production fast path: each Montgomery product is a few big-int
    operations, ``(x·y + M·N) / R``, at any width, bit-identical to the
    paper's bit-serial loop, with cycle counts the test suite proves
    identical to the measured RTL model.  The default backend of
    ``repro serve``.
    """

    name = "integer"
    capabilities = BackendCapabilities(
        description="closed-form big-int Algorithm 2, exact 3l+5 cycle accounting",
        max_bits=None,
        cycle_accurate=True,
        simulator=False,
    )

    def execute(self, ctx, request):
        run = _golden_exponentiator(ctx).exponentiate(request.base, request.exponent)
        return BackendResult(run.result, run.cycles)


class CRTBackend(ModExpBackend):
    """CRT-RSA: two half-width exponentiations plus Garner recombination.

    Requires ``factors=(p, q)`` with p, q prime (the standard RSA private
    operation).  Roughly 4× cheaper in cycle-weighted work because the
    half-width multiplier runs ``3(l/2)+5``-cycle multiplications over
    half-length exponents.
    """

    name = "crt-rsa"
    capabilities = BackendCapabilities(
        description="two half-width closed-form exponentiations + Garner",
        max_bits=None,
        cycle_accurate=True,
        simulator=False,
        requires_factors=True,
    )

    def model_cycles(self, request):
        half = max(request.width // 2, 2)
        mults = 1.5 * half + 1  # exponent reduced mod (p-1): ~half-length
        return 2 * mmm_cycles_corrected(half) * mults

    def execute(self, ctx, request):
        p, q = request.factors
        c, d = request.base, request.exponent
        cycles = 0

        def half(prime: int) -> int:
            nonlocal cycles
            d_half = d % (prime - 1)
            residue = c % prime
            if d_half == 0:
                # x^0 = 1 for invertible x, 0 for x = 0 — no cycles spent.
                return 1 % prime if residue else 0
            exp = _golden_exponentiator(precompute_montgomery_constants(prime))
            run = exp.exponentiate(residue, d_half)
            cycles += run.cycles
            return run.result

        m_p, m_q = half(p), half(q)
        h = (_garner_coefficient(p, q) * (m_p - m_q)) % p
        return BackendResult(m_q + h * q, cycles)


class RTLBackend(ModExpBackend):
    """Cycle-accurate systolic MMMC: the gate-level netlist, one routine.

    The netlist twin on compiled kernels, which the equivalence suite
    proves cycle- and bit-identical to the behavioral
    :class:`~repro.systolic.mmmc.MMMC`.  Each width ``l`` gets one
    elaborated :class:`GateLevelMMMC`, reused across requests.  Every lane
    group — a lone request, a same-exponent group of up to
    ``capabilities.lanes`` requests of one width under any mix of moduli,
    and the chaos register-fault path alike — sweeps on a lane word of
    exactly its size: the instance is rebound to ``k`` lanes
    (:meth:`~repro.systolic.mmmc_netlist.GateLevelMMMC.rebind`, one kernel
    factory call, no recompile), so no padding lane is ever evaluated.
    :meth:`_exponentiate` runs the Algorithm 3 chain
    (:func:`~repro.montgomery.exponent.modexp_chain`) over one
    :meth:`~repro.systolic.mmmc_netlist.GateLevelMMMC.multiply_slots`
    sweep per multiplication, its operands kept as bus-slot words from the
    first product to the last, with the Walter ``T < 2N`` bound checked on
    every product of every lane, every lane's DONE checked against the
    others, and the measured cycles checked against
    :func:`~repro.systolic.timing.exponentiation_cycles_measured`
    once per group.  The simulators are stateful, so a lock keeps
    concurrent callers from interleaving multiplications on one instance.
    """

    name = "rtl"
    capabilities = BackendCapabilities(
        description="cycle-accurate MMMC on compiled gate-level kernels",
        max_bits=64,
        cycle_accurate=True,
        simulator=True,
        lanes=256,
    )
    wall_weight = 200.0

    def __init__(self) -> None:
        import threading

        self._mmmcs: Dict[int, object] = {}
        self._lock = threading.Lock()

    def _mmmc(self, l: int):
        """The width's one netlist instance (elaborated on first use)."""
        inst = self._mmmcs.get(l)
        if inst is None:
            from repro.systolic.mmmc_netlist import GateLevelMMMC

            inst = self._mmmcs[l] = GateLevelMMMC(l, simulator="compiled")
        return inst

    def _exponentiate(
        self,
        contexts: List[MontgomeryContext],
        requests: List[ModExpRequest],
        fault=None,
    ) -> List[BackendResult]:
        """One square-and-multiply schedule, K requests as bit-sliced lanes.

        Lane ``k`` runs ``requests[k]`` under its own ``contexts[k]``:
        the netlist loads ``N`` per lane, and the ``R² mod N`` operand,
        the Walter bound and the final reduction are per lane too.  The
        chain's operands are bus-slot words
        (:func:`~repro.hdl.compiled.pack_slots`): base, ``R² mod N`` and
        ``N`` are transposed in once, each product is the RESULT bank read
        back and fed straight to the next product, and only the final
        products are transposed out.  The Walter check is one bit-sliced
        comparison against the ``2N`` slot word
        (:func:`~repro.hdl.compiled.slots_below`); the word is unpacked
        only when a lane fails, for the error message.
        ``fault = (index, site)`` arms a register fault for the
        multiplication numbered ``index`` (0-based, in chain order).
        Caller holds ``self._lock`` and guarantees every request shares
        the exponent and ``l`` (the lanes advance in lock-step through
        one ``l``-bit array, so the multiplication schedule must be
        common).
        """
        from repro.hdl.compiled import pack_slots, slots_below, unpack_slots
        from repro.systolic.exponentiator import check_cycles
        from repro.systolic.timing import exponentiation_cycles_measured

        l = contexts[0].l
        assert all(ctx.l == l for ctx in contexts), "a lane sweep needs one l"
        ns = [ctx.modulus for ctx in contexts]
        exponent = requests[0].exponent
        # Every lane is live: the word is exactly the group (a lone
        # request sweeps one lane and records no lane-fill samples).
        k, width = len(requests), l + 1
        netlist = self._mmmc(l)
        netlist.rebind(k)
        bases = [r.base for r in requests]
        r2s = [ctx.r2_mod_n for ctx in contexts]
        # The chain's entry operands are validated once, per lane; every
        # later operand is a product that passed the Walter check below,
        # i.e. the same [0, 2N) predicate.
        for x, y, n in zip(bases, r2s, ns):
            netlist.validate(x, y, n)

        n_word = pack_slots(ns, width)
        two_n = n_word << k  # every lane's N one slot up: 2N
        live = (1 << k) - 1
        cycles = 0
        issued = 0

        def mont(kind: str, x: int, y: int) -> int:
            nonlocal cycles, issued
            if fault is not None and issued == fault[0]:
                netlist.schedule_fault(fault[1])
            issued += 1
            t, took = netlist.multiply_slots(x, y, n_word, k)
            cycles += took  # lock-step: every lane pays the same
            bad = live & ~slots_below(t, two_n, width, k, live)
            if bad:
                lane = (bad & -bad).bit_length() - 1
                _walter_checked(unpack_slots(t, width, k)[lane], ns[lane], lane)
            return t

        # One transpose in per operand kind (the 1 is the lane mask in
        # slot 0), one transpose out for the final products.
        chain = modexp_chain(
            pack_slots(bases, width), exponent, pack_slots(r2s, width), one=live
        )
        values = unpack_slots(run_chain(chain, mont), width, k)
        check_cycles(cycles, exponentiation_cycles_measured(l, exponent))
        return [BackendResult(v % n, cycles) for v, n in zip(values, ns)]

    def execute(self, ctx, request):
        with self._lock:
            return self._exponentiate([ctx], [request])[0]

    def execute_with_register_fault(self, ctx, request, rng):
        """Chaos hook: one seeded register bit flip mid-exponentiation.

        Runs the request on a one-lane word of the width's netlist
        instance with a single-event upset scheduled into one randomly
        chosen multiplication (register class, bit and cycle drawn from
        ``rng``).  The flip may be masked (shadow-phase state), detected
        in-worker by the Walter-bound check, or surface as a silently
        wrong value for the service verifier to catch — the same three
        outcomes a real SEU has.
        """
        from repro.analysis.fault import REGISTER_CLASSES, FaultSite

        l = ctx.l
        reg_class = rng.choice(REGISTER_CLASSES)
        with self._lock:
            width = len(self._mmmc(l).fault_sites()[reg_class])
            site = FaultSite(
                cycle=rng.randrange(3 * l + 4),
                register=reg_class,
                index=rng.randrange(width),
            )
            target = rng.randrange(len(chain_kinds(request.exponent)))
            return self._exponentiate([ctx], [request], fault=(target, site))[0]

    def execute_many(self, contexts, requests):
        from repro.serving.scheduler import lane_groups

        results: List[Optional[BackendResult]] = [None] * len(requests)
        for chunk in lane_groups(
            range(len(requests)),
            max(self.capabilities.lanes, 1),
            exponent_of=lambda i: requests[i].exponent,
        ):
            with self._lock:
                outs = self._exponentiate(
                    [contexts[i] for i in chunk], [requests[i] for i in chunk]
                )
            for i, out in zip(chunk, outs):
                results[i] = out
        return results


class HighRadixBackend(ModExpBackend):
    """Word-based (radix-2^α) CIOS software baseline.

    Functional arithmetic from :mod:`repro.montgomery.radix`; cycles come
    from the :class:`~repro.baselines.highradix.HighRadixModel` latency
    model (modelled, not measured — ``cycle_accurate=False``).
    """

    name = "highradix"
    capabilities = BackendCapabilities(
        description="word-based CIOS Montgomery, modelled cycles",
        max_bits=None,
        cycle_accurate=False,
        simulator=False,
    )

    def __init__(self, word_bits: int = 16) -> None:
        if word_bits < 1:
            raise ParameterError(f"word_bits must be >= 1, got {word_bits}")
        self.word_bits = word_bits

    def model_cycles(self, request):
        from repro.baselines.highradix import HighRadixModel

        model = HighRadixModel(max(request.width, 2), self.word_bits)
        mults = 1.5 * request.exponent.bit_length() + 1
        return model.mmm_cycles * mults

    def execute(self, ctx, request):
        from repro.baselines.highradix import HighRadixModel
        from repro.montgomery.radix import WordMontgomeryParams, mont_mul_cios

        n = ctx.modulus
        params = WordMontgomeryParams(n, self.word_bits)
        r2 = (params.R * params.R) % n
        mults = 0

        def mont(kind: str, x: int, y: int) -> int:
            nonlocal mults
            mults += 1
            return _walter_checked(mont_mul_cios(params, x, y), n)

        value = run_chain(modexp_chain(request.base, request.exponent, r2), mont)
        cycles = HighRadixModel(ctx.l, self.word_bits).mmm_cycles * mults
        return BackendResult(value % n, cycles)


class ScalableBackend(ModExpBackend):
    """Tenca–Koç word-serial scalable unit (paper ref [26]).

    Functional word-serial kernel with the published first-order latency
    model for a ``stages``-PE pipeline.
    """

    name = "scalable"
    capabilities = BackendCapabilities(
        description="word-serial Tenca–Koç kernel, modelled pipeline cycles",
        max_bits=None,
        cycle_accurate=False,
        simulator=False,
    )

    def __init__(self, word: int = 8, stages: int = 4) -> None:
        if word < 1 or stages < 1:
            raise ParameterError("word and stages must be >= 1")
        self.word = word
        self.stages = stages

    def model_cycles(self, request):
        from repro.baselines.scalable import scalable_mmm_cycles

        mults = 1.5 * request.exponent.bit_length() + 1
        return scalable_mmm_cycles(request.width, self.word, self.stages) * mults

    def execute(self, ctx, request):
        from repro.baselines.scalable import scalable_mmm_cycles, scalable_montgomery

        n = ctx.modulus
        # The scalable kernel uses the classical R₁ = 2^l convention with
        # operands in [0, N), unlike the array's R = 2^(l+2) / [0, 2N).
        r1 = (1 << ctx.l) % n
        r2 = (r1 * r1) % n
        mults = 0

        def mont(kind: str, x: int, y: int) -> int:
            nonlocal mults
            mults += 1
            return _walter_checked(scalable_montgomery(ctx, x, y, self.word), n)

        value = run_chain(modexp_chain(request.base, request.exponent, r2), mont)
        cycles = scalable_mmm_cycles(ctx.l, self.word, self.stages) * mults
        return BackendResult(value % n, cycles)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class BackendRegistry:
    """Name → backend mapping with a capability matrix for docs/CLI."""

    def __init__(self) -> None:
        self._backends: Dict[str, ModExpBackend] = {}

    def register(self, backend: ModExpBackend, *, replace: bool = False) -> None:
        if not backend.name:
            raise ParameterError("backend must declare a non-empty name")
        if backend.name in self._backends and not replace:
            raise ParameterError(f"backend {backend.name!r} already registered")
        self._backends[backend.name] = backend

    def get(self, name: str) -> ModExpBackend:
        try:
            return self._backends[name]
        except KeyError:
            raise ParameterError(
                f"unknown backend {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def __len__(self) -> int:
        return len(self._backends)

    def __iter__(self) -> Iterator[ModExpBackend]:
        return iter(self._backends[n] for n in self.names())

    def capability_rows(self) -> List[List[object]]:
        """Rows for ``repro backends`` / the docs capability matrix."""
        rows = []
        for b in self:
            caps = b.capabilities
            rows.append(
                [
                    b.name,
                    "∞" if caps.max_bits is None else caps.max_bits,
                    "measured" if caps.cycle_accurate else "modelled",
                    "yes" if caps.simulator else "no",
                    "yes" if caps.requires_factors else "no",
                    caps.description,
                ]
            )
        return rows


def default_registry() -> BackendRegistry:
    """A fresh registry holding every built-in backend."""
    # Imported here, not at module top: repro.chip.backend subclasses
    # ModExpBackend from this module, so a top-level import would cycle.
    from repro.chip.backend import ChipBackend

    reg = BackendRegistry()
    for backend in (
        IntegerBackend(),
        CRTBackend(),
        RTLBackend(),
        HighRadixBackend(),
        ScalableBackend(),
        ChipBackend(),
    ):
        reg.register(backend)
    return reg
