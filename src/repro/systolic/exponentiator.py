"""The modular exponentiator of Section 4.5, built on the MMMC.

:class:`ModularExponentiator` realizes Algorithm 3 by issuing Montgomery
multiplications to an engine:

* ``engine="behavioral"`` — every multiplication runs through the
  cycle-accurate :class:`~repro.systolic.mmmc.MMMC`; total cycles are
  measured.
* ``engine="netlist"`` — every multiplication runs through the gate-level
  netlist twin (:class:`~repro.systolic.mmmc_netlist.GateLevelMMMC`) on
  the compiled kernel engine; cycles are measured at the netlist level
  and provably equal the behavioral count.
* ``engine="golden"`` — multiplications use the closed-form Algorithm 2
  product ``(x·y + M·N) / R`` of
  :func:`~repro.montgomery.algorithms.montgomery_no_subtraction` (a few
  big-integer operations, bit-identical to the bit-serial loop that
  :func:`~repro.montgomery.algorithms.montgomery_trace` keeps as the
  digit-by-digit reference), while cycle accounting uses the hardware
  cost (``3l+4`` per operation, ``3l+5`` corrected, which the test suite
  proves identical to the measured behavioral count).  This makes RSA-scale
  exponentiation fast without changing any reported number.

The operation sequence is exactly the paper's: pre-multiplication by
``R² mod N`` (into the Montgomery domain), the left-to-right binary scan,
and the final multiplication by 1 (out of the domain).  That schedule is
the one Algorithm 3 chain, :func:`~repro.montgomery.exponent.modexp_chain`,
which :meth:`ModularExponentiator.exponentiate` drives with
:func:`~repro.montgomery.exponent.run_chain`.  No intermediate value is
ever reduced — everything lives in the ``[0, 2N)`` window, which is the
point of the no-subtraction bound.

The golden chain checks its entry operands before its first product:
the message against ``[0, N)`` and both operands of the
pre-multiplication (the message and ``R² mod N``) against ``[0, 2N)``,
so a bad context fails before any span opens.  Each product is then one
counted :func:`~repro.montgomery.algorithms.montgomery_no_subtraction`
call and nothing else.  Its Walter check ``T < 2N`` keeps every
later operand in range: each is an earlier product, the standing ``M·R``
(the first product) or the post-multiplication's 1.  The product's own
operand checks therefore never fire inside a chain and cost one chained
comparison.  The driver counts the products, and :func:`check_cycles` —
the measured-versus-model cross-check, shared with the netlist serving
backend — holds the count times the per-product cost to
:func:`~repro.systolic.timing.exponentiation_cycles_measured`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import ParameterError
from repro.montgomery.algorithms import check_radix2_operands, montgomery_no_subtraction
from repro.montgomery.exponent import chain_kinds, modexp_chain, run_chain
from repro.montgomery.params import MontgomeryContext
from repro.observability import OBS
from repro.systolic.substrate import EXPONENTIATOR_ENGINES, check_engine, make_mmmc
from repro.systolic.timing import (
    exponentiation_cycles_measured,
    mmm_cycles,
    mmm_cycles_corrected,
)

__all__ = ["ModularExponentiator", "ExponentiationRun", "check_cycles"]


def check_cycles(measured: int, expected: int) -> None:
    """Fail when a multiplier's measured cycles disagree with the cost model."""
    if measured != expected:
        raise AssertionError(f"measured {measured} cycles, cost model says {expected}")


class ExponentiationRun:
    """Result and measured costs of one exponentiation.

    ``operations`` is the ``(kind, cycles)`` log, one entry per
    multiplication.  A hardware engine appends each product's measured
    cost as it runs.  Every golden product costs the same modelled
    cycles, so a golden chain only counts its products; its log is
    derived from the exponent's chain kinds
    (:func:`~repro.montgomery.exponent.chain_kinds`) on first read.
    """

    def __init__(
        self,
        result: int = 0,
        cycles: int = 0,
        *,
        chain: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        self.result = result
        self.cycles = cycles
        self._operations: List[Tuple[str, int]] = []
        #: ``(exponent, cost per product, products)`` of a golden chain
        #: whose log has not been derived yet.
        self._chain = chain

    @property
    def operations(self) -> List[Tuple[str, int]]:
        if self._chain is not None:
            exponent, cost, _ = self._chain
            self._operations = [(kind, cost) for kind in chain_kinds(exponent)]
            self._chain = None
        return self._operations

    @property
    def num_multiplications(self) -> int:
        if self._chain is not None:
            return self._chain[2]
        return len(self._operations)


class ModularExponentiator:
    """Square-and-multiply exponentiator over a systolic Montgomery multiplier.

    Parameters
    ----------
    ctx:
        Montgomery parameter context (fixes N, l, R = 2^(l+2), R² mod N).
    engine:
        One of :data:`~repro.systolic.substrate.EXPONENTIATOR_ENGINES`:
        ``"behavioral"`` (cycle-accurate register model), ``"netlist"``
        (gate-level netlist twin on compiled kernels) or ``"golden"``
        (big-integer arithmetic with the hardware cycle accounting).
    multiplier:
        Optional pre-built hardware multiplier (a behavioral ``MMMC``, a
        ``GateLevelMMMC`` or anything with their ``multiply(x, y, n)``) to
        use instead of constructing one, e.g. an instrumented one in a
        test; it must match ``ctx.l`` and ``mode``.  Only valid with a
        hardware engine (``"behavioral"`` / ``"netlist"``).
    """

    def __init__(
        self,
        ctx: MontgomeryContext,
        engine: str = "behavioral",
        *,
        mode: str = "corrected",
        multiplier=None,
    ) -> None:
        self.ctx = ctx
        self.engine = check_engine(engine, EXPONENTIATOR_ENGINES)
        self.mode = mode
        if engine == "golden":
            if multiplier is not None:
                raise ParameterError(
                    "multiplier= requires a hardware engine "
                    "('behavioral' or 'netlist')"
                )
        elif multiplier is None:
            multiplier = make_mmmc(engine, ctx.l, mode)
        self.mmmc = multiplier
        # Modelled cycles of one multiplication in this mode.
        self._op_cycles = (
            mmm_cycles_corrected(ctx.l) if mode == "corrected" else mmm_cycles(ctx.l)
        )
        self.cycles = 0

    @classmethod
    def for_modulus(
        cls,
        modulus: int,
        *,
        engine: str = "golden",
        mode: str = "corrected",
        l: int = 0,
    ) -> "ModularExponentiator":
        """Exponentiator over the shared cached parameter set for ``modulus``.

        Goes through
        :func:`~repro.montgomery.params.precompute_montgomery_constants`,
        so repeated constructions for the same modulus (the serving layer's
        per-batch workers, the RSA cipher's three exponentiators) reuse one
        pre-computation of ``R² mod N`` and ``N'``.
        """
        from repro.montgomery.params import precompute_montgomery_constants

        return cls(precompute_montgomery_constants(modulus, l), engine, mode=mode)

    # ------------------------------------------------------------------
    def _mont(self, kind: str, x: int, y: int, run: ExponentiationRun) -> int:
        """One product on the hardware multiplier, logged into ``run``."""
        observed = OBS.enabled
        if observed:
            OBS.begin(kind, cat="exponentiator")
        rec = self.mmmc.multiply(x, y, self.ctx.modulus)
        cost = rec.cycles
        if observed:
            OBS.end(cycles=cost)
            OBS.count("exponentiator.operations", kind=kind)
            OBS.record("exponentiator.operation_cycles", cost, kind=kind)
        run.cycles += cost
        run.operations.append((kind, cost))
        return rec.result

    def exponentiate(self, message: int, exponent: int) -> ExponentiationRun:
        """Compute ``message ** exponent mod N`` through the hardware model.

        Returns the reduced result (in ``[0, N)``) and the measured cycle
        total, which equals
        :func:`~repro.systolic.timing.exponentiation_cycles_measured`
        for the same exponent.
        """
        ctx = self.ctx
        if not 0 <= message < ctx.modulus:
            raise ParameterError(
                f"message must be in [0, N); got {message} for N={ctx.modulus}"
            )
        if exponent <= 0:
            raise ParameterError(f"exponent must be >= 1, got {exponent}")
        if self.mmmc is None:
            # The chain's entry operands; see the module docstring.
            check_radix2_operands(ctx, message, ctx.r2_mod_n)
        observed = OBS.enabled
        if observed:
            OBS.begin(
                "exponentiate",
                cat="exponentiator",
                l=ctx.l,
                engine=self.engine,
                exponent_bits=exponent.bit_length(),
            )
        chain = modexp_chain(message, exponent, ctx.r2_mod_n)
        if self.mmmc is None:
            a, count = self._run_golden(lambda mont: run_chain(chain, mont), observed)
            cost = self._op_cycles
            run = ExponentiationRun(cycles=count * cost, chain=(exponent, cost, count))
        else:
            run = ExponentiationRun()
            a = run_chain(chain, lambda kind, x, y: self._mont(kind, x, y, run))
        run.result = a % ctx.modulus
        self.cycles += run.cycles
        if observed:
            OBS.end(cycles=run.cycles, multiplications=run.num_multiplications)
            OBS.count("exponentiator.exponentiations")
            OBS.record("exponentiator.exponentiation_cycles", run.cycles)
        check_cycles(
            run.cycles, exponentiation_cycles_measured(ctx.l, exponent, mode=self.mode)
        )
        return run

    def _run_golden(
        self, drive: Callable[[Callable[[str, int, int], int]], int], observed: bool
    ) -> Tuple[int, int]:
        """Run ``drive(mont)`` with the golden per-product step.

        ``mont(kind, x, y)`` is one
        :func:`~repro.montgomery.algorithms.montgomery_no_subtraction`
        call, counted.  Returns what ``drive`` returns and the number of
        products.  The observed path wraps the same step in one span and
        the ``exponentiator.operations`` / ``operation_cycles`` metrics
        per product; the golden engine skips the hardware, so the trace clock
        advances by the modelled cost in one jump.
        """
        ctx = self.ctx
        count = 0

        def mont(kind: str, x: int, y: int) -> int:
            nonlocal count
            count += 1
            return montgomery_no_subtraction(ctx, x, y)

        if not observed:
            return drive(mont), count
        cost = self._op_cycles

        def traced(kind: str, x: int, y: int) -> int:
            OBS.begin(kind, cat="exponentiator")
            value = mont(kind, x, y)
            OBS.tick(cost)
            OBS.end(cycles=cost)
            OBS.count("exponentiator.operations", kind=kind)
            OBS.record("exponentiator.operation_cycles", cost, kind=kind)
            return value

        return drive(traced), count

    def exponentiate_windowed(
        self,
        message: int,
        exponent: int,
        *,
        window: int = 4,
        method: str = "sliding",
    ) -> ExponentiationRun:
        """Windowed exponentiation through the same engine.

        Builds the :mod:`repro.montgomery.windowed` schedule and executes
        it with this exponentiator's multiplier (cycle-accurate on a
        hardware engine), trading a precomputed power table for fewer
        multiplier passes; see the window ablation benchmark.  The cycle
        total is checked against the per-operation cost times the number
        of multiplier passes.
        """
        from repro.montgomery.windowed import (
            binary_schedule,
            execute_schedule,
            mary_schedule,
            sliding_window_schedule,
        )

        if method == "sliding":
            sched = sliding_window_schedule(exponent, window)
        elif method == "mary":
            sched = mary_schedule(exponent, window)
        elif method == "binary":
            sched = binary_schedule(exponent)
        else:
            raise ParameterError(f"unknown method {method!r}")
        observed = OBS.enabled
        if observed:
            OBS.begin(
                "exponentiate_windowed",
                cat="exponentiator",
                l=self.ctx.l,
                method=method,
                window=window,
            )
        if self.mmmc is None:
            cost = self._op_cycles
            value, count = self._run_golden(
                lambda mont: execute_schedule(
                    self.ctx, sched, message, mont=lambda ctx, x, y: mont("window-op", x, y)
                ),
                observed,
            )
            run = ExponentiationRun(value, count * cost)
            run.operations.extend([("window-op", cost)] * count)
        else:
            run = ExponentiationRun()

            def hook(ctx: MontgomeryContext, x: int, y: int) -> int:
                return self._mont("window-op", x, y, run)

            run.result = execute_schedule(self.ctx, sched, message, mont=hook)
        self.cycles += run.cycles
        if observed:
            OBS.end(cycles=run.cycles, multiplications=run.num_multiplications)
            OBS.count("exponentiator.exponentiations")
            OBS.record("exponentiator.exponentiation_cycles", run.cycles)
        check_cycles(run.cycles, run.num_multiplications * self._op_cycles)
        return run
