"""One chip tile: an interleaved array behind bounded input/output FIFOs.

The tile is the unit the chip replicates.  Its per-cycle contract,
executed by :meth:`Tile.step` on the chip's shared clock:

1. **deliver** — move previously retired results that found the output
   FIFO full (held in an internal stage register) into the output FIFO,
   oldest first, as far as space allows;
2. **issue** — pop ops off the input FIFO into the array as long as the
   wave governor admits them this cycle;
3. **clock** — step the interleaved array one cycle;
4. **drain** — push freshly retired results (stamped with the tile index)
   to the output FIFO, spilling to the stage register under backpressure.

Every enqueued op produces exactly one outcome in the output FIFO (or the
stage register until space frees), in retirement order — the exactly-once
guarantee the backpressure tests pin.  A completely empty tile's step is
a no-op: no state advances, nothing is sampled, so idle tiles cost
nothing but the emptiness check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, List, Optional

from repro.chip.fifo import BoundedFIFO
from repro.chip.interleave import InterleavedArray, MMMOp, WaveOutcome

__all__ = ["Tile"]


class Tile:
    """Array + FIFO harness; see the module docstring for step semantics."""

    def __init__(
        self,
        l: int,
        *,
        index: int = 0,
        waves: int = 2,
        mode: str = "corrected",
        engine: str = "behavioral",
        fifo_depth: int = 8,
        source: Optional[str] = None,
    ) -> None:
        self.index = index
        self.array = InterleavedArray(
            l,
            waves=waves,
            mode=mode,
            engine=engine,
            source=source if source is not None else f"chip.tile{index}",
        )
        self.in_fifo: BoundedFIFO[MMMOp] = BoundedFIFO(fifo_depth)
        self.out_fifo: BoundedFIFO[WaveOutcome] = BoundedFIFO(fifo_depth)
        self._stage: Deque[WaveOutcome] = deque()

    # ------------------------------------------------------------------
    # Chip-facing interface
    # ------------------------------------------------------------------
    def try_enqueue(self, op: MMMOp) -> bool:
        """Dispatcher entry point: ``False`` = input FIFO full, hold the op."""
        return self.in_fifo.push(op)

    @property
    def busy(self) -> bool:
        """True while the array holds at least one in-flight wave."""
        return self.array.in_flight > 0

    @property
    def queue_depth(self) -> int:
        """Dispatcher load signal: queued + in-flight work."""
        return len(self.in_fifo) + self.array.in_flight

    @property
    def pending(self) -> int:
        """Everything not yet handed to a consumer."""
        return (
            len(self.in_fifo)
            + self.array.in_flight
            + len(self._stage)
            + len(self.out_fifo)
        )

    @property
    def idle(self) -> bool:
        return self.pending == 0

    def step(self) -> None:
        if self.idle:
            return  # the no-op contract: nothing to do, nothing advances
        while self._stage:
            if not self.out_fifo.push(self._stage[0]):
                break
            self._stage.popleft()
        while self.in_fifo:
            op = self.in_fifo.peek()
            assert op is not None
            if self.array.try_issue(op) is None:
                break
            self.in_fifo.pop()
        self.array.step()
        for outcome in self.array.take_completed():
            stamped = replace(outcome, tile=self.index)
            if self._stage or not self.out_fifo.push(stamped):
                self._stage.append(stamped)

    # ------------------------------------------------------------------
    # Flight-recorder probes
    # ------------------------------------------------------------------
    def probe_layout(self):
        """``(name, bit_width)`` pairs describing :meth:`probe_values`.

        The chip-level flight recorder samples these per shared-clock
        cycle: FIFO depths, the backpressure stage register, in-flight
        waves and the busy flag — the tile-health signals a logic analyzer
        on the dispatch fabric would watch.
        """
        depth_bits = max(self.in_fifo.capacity.bit_length(), 1)
        return [
            ("in_fifo", depth_bits),
            ("out_fifo", depth_bits),
            ("stage", depth_bits),
            ("inflight", max(self.array.waves.bit_length(), 1)),
            ("busy", 1),
        ]

    def probe_values(self):
        """One flat per-cycle sample of the tile's health signals."""
        return (
            len(self.in_fifo),
            len(self.out_fifo),
            len(self._stage),
            self.array.in_flight,
            1 if self.busy else 0,
        )

    def drain_results(self) -> List[WaveOutcome]:
        """Consumer entry point: pop every result, in retirement order.

        The stage register only ever holds results retired *after* the
        newest FIFO entry (it spills once the FIFO is full), so FIFO
        contents followed by stage contents is retirement order.
        """
        out = self.out_fifo.drain()
        out.extend(self._stage)
        self._stage.clear()
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tile(index={self.index}, in={len(self.in_fifo)}, "
            f"flight={self.array.in_flight}, out={len(self.out_fifo)})"
        )
