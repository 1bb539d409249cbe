"""The modular exponentiator of Section 4.5, built on the MMMC.

:class:`ModularExponentiator` realizes Algorithm 3 by issuing Montgomery
multiplications to an engine:

* ``engine="rtl"`` — every multiplication runs through the cycle-accurate
  :class:`~repro.systolic.mmmc.MMMC`; total cycles are measured.
* ``engine="gate"`` — every multiplication runs through the gate-level
  netlist twin (:class:`~repro.systolic.mmmc_netlist.GateLevelMMMC`) on
  the compiled kernel engine; cycles are measured at the netlist level
  and provably equal the behavioral RTL count.
* ``engine="golden"`` — multiplications use the closed-form Algorithm 2
  product ``(x·y + M·N) / R`` of
  :func:`~repro.montgomery.algorithms.montgomery_no_subtraction` (a few
  big-integer operations, bit-identical to the bit-serial loop that
  :func:`~repro.montgomery.algorithms.montgomery_trace` keeps as the
  digit-by-digit reference), while cycle accounting uses the RTL cost
  (``3l+4`` per operation, ``3l+5`` corrected, which the test suite
  proves identical to the measured RTL count).  This makes RSA-scale
  exponentiation fast without changing any reported number.

The operation sequence is exactly the paper's: pre-multiplication by
``R² mod N`` (into the Montgomery domain), the left-to-right binary scan,
and the final multiplication by 1 (out of the domain).  That schedule is
the one Algorithm 3 chain, :func:`~repro.montgomery.exponent.modexp_chain`,
which :meth:`ModularExponentiator.exponentiate` drives with
:func:`~repro.montgomery.exponent.run_chain`.  No intermediate value is
ever reduced — everything lives in the ``[0, 2N)`` window, which is the
point of the no-subtraction bound.  :func:`check_cycles` is the
measured-versus-model cross-check, shared with the netlist serving
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ParameterError
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.exponent import modexp_chain, run_chain
from repro.montgomery.params import MontgomeryContext
from repro.observability import OBS
from repro.systolic.mmmc import MMMC
from repro.systolic.timing import (
    exponentiation_cycles_measured_model,
    mmm_cycles,
    mmm_cycles_corrected,
)

__all__ = ["ModularExponentiator", "ExponentiationRun", "check_cycles"]


def check_cycles(measured: int, expected: int) -> None:
    """Fail when a multiplier's measured cycles disagree with the cost model."""
    if measured != expected:
        raise AssertionError(f"measured {measured} cycles, cost model says {expected}")


@dataclass
class ExponentiationRun:
    """Result and measured costs of one exponentiation."""

    result: int
    cycles: int
    operations: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def num_multiplications(self) -> int:
        return len(self.operations)


class ModularExponentiator:
    """Square-and-multiply exponentiator over a systolic Montgomery multiplier.

    Parameters
    ----------
    ctx:
        Montgomery parameter context (fixes N, l, R = 2^(l+2), R² mod N).
    engine:
        ``"rtl"`` (cycle-accurate behavioral hardware model), ``"gate"``
        (gate-level netlist twin on compiled kernels) or ``"golden"``
        (big-integer arithmetic with the RTL cycle accounting).
    multiplier:
        Optional pre-built hardware multiplier (a behavioral ``MMMC``, a
        ``GateLevelMMMC`` or anything with their ``multiply(x, y, n)``) to
        use instead of constructing one, e.g. an instrumented one in a
        test; it must match ``ctx.l`` and ``mode``.  Only valid with a
        hardware engine (``"rtl"`` / ``"gate"``).
    """

    def __init__(
        self,
        ctx: MontgomeryContext,
        engine: str = "rtl",
        *,
        mode: str = "corrected",
        multiplier=None,
    ) -> None:
        if engine not in ("rtl", "gate", "golden"):
            raise ParameterError(f"unknown engine {engine!r}")
        self.ctx = ctx
        self.engine = engine
        self.mode = mode
        if engine == "golden":
            if multiplier is not None:
                raise ParameterError(
                    "multiplier= requires a hardware engine ('rtl' or 'gate')"
                )
            self.mmmc = None
        elif multiplier is not None:
            self.mmmc = multiplier
        elif engine == "gate":
            from repro.systolic.mmmc_netlist import GateLevelMMMC

            self.mmmc = GateLevelMMMC(ctx.l, mode=mode, simulator="compiled")
        else:
            self.mmmc = MMMC(ctx.l, mode=mode)
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
        n = self.ctx.modulus
        observed = OBS.enabled
        if observed:
            OBS.begin(kind, cat="exponentiator")
        if self.mmmc is not None:
            rec = self.mmmc.multiply(x, y, n)
            value, cost = rec.result, rec.cycles
        else:
            value = montgomery_no_subtraction(self.ctx, x, y)
            cost = self._op_cycles
            if observed:
                # The golden engine skips the RTL, so the trace clock
                # advances by the modelled cost in one jump.
                OBS.tick(cost)
        if observed:
            OBS.end(cycles=cost)
            OBS.count("exponentiator.operations", kind=kind)
            OBS.record("exponentiator.operation_cycles", cost, kind=kind)
        run.cycles += cost
        run.operations.append((kind, cost))
        return value

    def exponentiate(self, message: int, exponent: int) -> ExponentiationRun:
        """Compute ``message ** exponent mod N`` through the hardware model.

        Returns the reduced result (in ``[0, N)``) and the measured cycle
        total, which equals
        :func:`~repro.systolic.timing.exponentiation_cycles_measured_model`
        for the same exponent.
        """
        ctx = self.ctx
        if not 0 <= message < ctx.modulus:
            raise ParameterError(
                f"message must be in [0, N); got {message} for N={ctx.modulus}"
            )
        if exponent <= 0:
            raise ParameterError(f"exponent must be >= 1, got {exponent}")
        run = ExponentiationRun(result=0, cycles=0)
        if OBS.enabled:
            OBS.begin(
                "exponentiate",
                cat="exponentiator",
                l=ctx.l,
                engine=self.engine,
                exponent_bits=exponent.bit_length(),
            )
        a = run_chain(
            modexp_chain(message, exponent, ctx.r2_mod_n),
            lambda kind, x, y: self._mont(kind, x, y, run),
        )
        run.result = a % ctx.modulus
        self.cycles += run.cycles
        if OBS.enabled:
            OBS.end(cycles=run.cycles, multiplications=run.num_multiplications)
            OBS.count("exponentiator.exponentiations")
            OBS.record("exponentiator.exponentiation_cycles", run.cycles)
        check_cycles(
            run.cycles,
            exponentiation_cycles_measured_model(ctx.l, exponent, mode=self.mode).total,
        )
        return run

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
        it with this exponentiator's multiplier (cycle-accurate when the
        engine is ``"rtl"``), trading a precomputed power table for fewer
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
        run = ExponentiationRun(result=0, cycles=0)
        if OBS.enabled:
            OBS.begin(
                "exponentiate_windowed",
                cat="exponentiator",
                l=self.ctx.l,
                method=method,
                window=window,
            )

        def hook(ctx: MontgomeryContext, x: int, y: int) -> int:
            return self._mont("window-op", x, y, run)

        run.result = execute_schedule(self.ctx, sched, message, mont=hook)
        self.cycles += run.cycles
        if OBS.enabled:
            OBS.end(cycles=run.cycles, multiplications=run.num_multiplications)
            OBS.count("exponentiator.exponentiations")
            OBS.record("exponentiator.exponentiation_cycles", run.cycles)
        check_cycles(run.cycles, run.num_multiplications * self._op_cycles)
        return run
