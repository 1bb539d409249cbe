"""The ``chip`` serving backend: modexp batches over the tiled chip model.

Where the other simulator backends run one request's square-and-multiply
chain to completion before touching the next, this backend *interleaves
the chains*: each request advances as its own Algorithm 3 chain
(:func:`~repro.montgomery.exponent.modexp_chain`), which yields one
Montgomery-multiplication operand pair at a time, the chip schedules the
outstanding multiplications of **different** requests into wave slots and
tiles concurrently, and each completed product resumes its requester's
chain.  Dependencies inside one chain are honoured automatically (a
request has at most one multiplication in flight); throughput comes from
cross-request concurrency — which is why the backend advertises
``mixed_exponent_lanes``: unlike the bit-sliced lane sweep, the chip does
not need a shared multiplication schedule, so the service may hand it
mixed-exponent groups up to ``tiles × waves`` wide.

Cycle accounting stays per-request and scalar-identical to the sequential
engines: a request's reported cycles are the sum of its own MMM
latencies (``3l+5`` each on the corrected array), untouched by how many
neighbours shared the lattice — so the existing per-request SLO formulas
keep holding.  The *group* completion estimate, which the chip actually
improves, comes from
:func:`repro.chip.schedule.completion_estimate_cycles` via
:meth:`ChipBackend.estimate_group_cycles` and the SLO policy's
``completion_budget``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.errors import (
    DeadlineExceeded,
    FaultDetected,
    ParameterError,
    SimulationError,
)
from repro.montgomery.exponent import Chain, modexp_chain
from repro.montgomery.params import MontgomeryContext
from repro.robustness.verify import walter_bound_ok
from repro.serving.backends import (
    BackendCapabilities,
    BackendResult,
    ModExpBackend,
)
from repro.serving.request import ModExpRequest
from repro.chip.chip import ChipModel
from repro.chip.interleave import MMMOp
from repro.chip.schedule import completion_estimate_cycles, speedup_model

__all__ = ["ChipBackend"]

class ChipBackend(ModExpBackend):
    """Wave-interleaved multi-tile chip over the cycle-accurate array."""

    name = "chip"
    wall_weight = 400.0  # steps W arrays per chip cycle, pure-Python governor

    def __init__(
        self,
        *,
        tiles: int = 2,
        waves: int = 2,
        engine: str = "rtl",
        fifo_depth: int = 8,
        dispatch: str = "least-depth",
        mode: str = "corrected",
        max_bits: int = 64,
    ) -> None:
        if engine not in ("rtl", "gate"):
            raise ParameterError(f"chip backend engine must be rtl|gate, got {engine!r}")
        self.tiles = tiles
        self.waves = waves
        self.engine = engine
        self.fifo_depth = fifo_depth
        self.dispatch = dispatch
        self.mode = mode
        self.capabilities = BackendCapabilities(
            description=(
                f"{tiles}-tile x {waves}-wave interleaved systolic chip "
                f"({engine} arrays, {dispatch} dispatch)"
            ),
            max_bits=max_bits if engine == "rtl" else min(max_bits, 10),
            cycle_accurate=True,
            simulator=True,
            lanes=tiles * waves,
            mixed_exponent_lanes=True,
        )
        self._chips: Dict[int, ChipModel] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def estimate_cost(self, request: ModExpRequest) -> float:
        """Wall-cost estimate: sequential cost over the chip's speedup.

        The scheduler orders backends by wall cost; a chip amortizes a
        request across its concurrency, so the per-request figure is the
        sequential model divided by the steady-state throughput gain
        (``tiles × waves``-capped, parity-spacing-aware).
        """
        gain = speedup_model(
            max(request.width, 2), tiles=self.tiles, waves=self.waves, mode=self.mode
        )
        return self.model_cycles(request) * self.wall_weight / max(gain, 1.0)

    def estimate_group_cycles(self, requests: List[ModExpRequest]) -> int:
        """Tile-occupancy-aware completion estimate for a whole group."""
        if not requests:
            return 0
        l = max(max(r.width, 2) for r in requests)
        mults = [2 * max(r.exponent.bit_length(), 1) for r in requests]
        return completion_estimate_cycles(
            mults, l, tiles=self.tiles, waves=self.waves, mode=self.mode
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _chip(self, l: int) -> ChipModel:
        chip = self._chips.get(l)
        if chip is None:
            chip = self._chips[l] = ChipModel(
                l,
                tiles=self.tiles,
                waves=self.waves,
                mode=self.mode,
                engine=self.engine,
                fifo_depth=self.fifo_depth,
                dispatcher=self.dispatch,
            )
        return chip

    def execute(self, ctx: MontgomeryContext, request: ModExpRequest) -> BackendResult:
        return self.execute_many([ctx], [request])[0]

    def execute_many(
        self, contexts: List[MontgomeryContext], requests: List[ModExpRequest]
    ) -> List[BackendResult]:
        """Drive every request's chain through the chip concurrently.

        Every request must share one Montgomery context: the tiles'
        arrays are set up for one modulus, so the scheduler batches the
        chip by ``(modulus, l)``.  Two distinct moduli (or widths) raise
        :class:`~repro.errors.ParameterError`.

        Deadline-aware drain: simulating a chip is expensive wall-clock
        work, so when *every* chain still in flight carries an absolute
        deadline that has already passed, the drain is abandoned (checked
        at entry and every ~256 chip cycles) with
        :class:`~repro.errors.DeadlineExceeded` rather than burning
        seconds computing answers nobody is waiting for.  The cached chip
        model is discarded on abandonment so stale in-flight operations
        can never leak into the next batch.
        """
        if not requests:
            return []
        ctx = contexts[0]
        for other in contexts[1:]:
            if (other.modulus, other.l) != (ctx.modulus, ctx.l):
                raise ParameterError(
                    "chip execute_many serves one (modulus, l) per call; got "
                    f"{(ctx.modulus, ctx.l)} and {(other.modulus, other.l)}"
                )

        def _all_expired(indices) -> bool:
            now = time.monotonic()
            live = list(indices)
            return bool(live) and all(
                requests[i].expires_at is not None and requests[i].expired(now)
                for i in live
            )

        if _all_expired(range(len(requests))):
            raise DeadlineExceeded(
                f"all {len(requests)} requests past their deadline before "
                "the chip drain started",
                where="chip",
            )
        n = ctx.modulus
        with self._lock:
            chip = self._chip(ctx.l)
            chains: Dict[int, Chain] = {}
            values: List[Optional[int]] = [None] * len(requests)
            cycles: List[int] = [0] * len(requests)
            for idx, req in enumerate(requests):
                chain = modexp_chain(req.base, req.exponent, ctx.r2_mod_n)
                _, x, y = next(chain)
                chains[idx] = chain
                chip.submit(MMMOp(x, y, n, tag=idx))
            # Generous drain bound: every chain multiplication in sequence
            # plus the issue slack — only a livelock can exceed it.
            total_mults = sum(
                2 * max(r.exponent.bit_length(), 1) + 2 for r in requests
            )
            limit = chip.cycle + (total_mults + 1) * (
                chip.tiles[0].array.datapath_cycles
                + chip.tiles[0].array.issue_interval
            )
            deadline_check = chip.cycle + 256
            while chains:
                if chip.cycle >= deadline_check:
                    deadline_check = chip.cycle + 256
                    if _all_expired(chains):
                        # Mid-drain abandonment leaves operations in the
                        # chip's FIFOs; drop the cached model so the next
                        # batch starts from a clean lattice.
                        self._chips.pop(ctx.l, None)
                        raise DeadlineExceeded(
                            f"all {len(chains)} remaining chains past their "
                            "deadline; abandoning chip drain",
                            where="chip",
                        )
                chip.step()
                for outcome in chip.collect():
                    idx = outcome.op.tag
                    product = outcome.value
                    if not walter_bound_ok(product, n):
                        raise FaultDetected(
                            f"chip product {product} outside [0, {2 * n}) — "
                            "Walter T < 2N invariant violated",
                            check="walter-bound",
                        )
                    cycles[idx] += outcome.cycles
                    chain = chains[idx]
                    try:
                        _, x, y = chain.send(product)
                    except StopIteration as fin:
                        values[idx] = fin.value % n
                        del chains[idx]
                    else:
                        chip.submit(MMMOp(x, y, n, tag=idx))
                if chip.cycle > limit:
                    raise SimulationError(
                        f"chip backend did not drain {len(chains)} chains "
                        f"within {limit} cycles"
                    )
        assert all(v is not None for v in values)
        return [BackendResult(v, c) for v, c in zip(values, cycles)]
