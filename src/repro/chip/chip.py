"""The multi-array chip: N tiles on one clock behind a dispatcher.

``ChipModel`` steps every :class:`~repro.chip.tile.Tile` on a shared
cycle clock — the quad-core-RSA-style scale-out the ROADMAP's
"multi-array chip" item asks for.  Work enters through :meth:`submit`,
which routes each op through the dispatch policy into the first tile
whose input FIFO accepts it; ops every FIFO refuses wait in a chip-level
backlog and are retried each cycle (backpressure, never deadlock: tiles
always drain independently of new arrivals).  Results leave through
:meth:`collect`.

Observability per chip cycle (when an ``observe()`` session is active):

* occupancy source ``chip.tiles`` — one busy *bit per tile* sampled per
  cycle, so the existing heatmap renderer draws the chip heatmap (rows =
  tiles) and per-tile busy fractions fall out of the same track;
* per-tile cell-level tracks ``chip.tile<i>`` from each tile's
  interleaved array (cell heatmaps inside one tile);
* histograms ``chip.waves`` (in-flight waves per cycle) and
  ``chip.fifo_depth{tile,dir}``; counters ``chip.dispatched{tile,policy}``
  and ``chip.backlogged``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Union

from repro.errors import ParameterError, SimulationError
from repro.hdl.probes import ProbeSet
from repro.observability import OBS
from repro.chip.dispatch import Dispatcher, make_dispatcher
from repro.chip.interleave import MMMOp, WaveOutcome
from repro.chip.tile import Tile

__all__ = ["ChipModel"]


class ChipModel:
    """N wave-interleaved tiles stepping on one shared clock."""

    def __init__(
        self,
        l: int,
        *,
        tiles: int = 2,
        waves: int = 2,
        mode: str = "corrected",
        engine: str = "behavioral",
        fifo_depth: int = 8,
        dispatcher: Union[str, Dispatcher] = "round-robin",
    ) -> None:
        if tiles < 1:
            raise ParameterError(f"chip needs tiles >= 1, got {tiles}")
        self.l = l
        self.waves = waves
        self.mode = mode
        self.engine = engine
        self.tiles: List[Tile] = [
            Tile(
                l,
                index=i,
                waves=waves,
                mode=mode,
                engine=engine,
                fifo_depth=fifo_depth,
            )
            for i in range(tiles)
        ]
        self.dispatcher = (
            dispatcher if isinstance(dispatcher, Dispatcher) else make_dispatcher(dispatcher)
        )
        self.backlog: Deque[MMMOp] = deque()
        self.cycle = 0
        self.submitted = 0
        self.retired = 0
        # Flight-recorder state: (hub, per-tile recorders, chip black box),
        # built lazily on the first step with an armed OBS.flightrec hub.
        self._flightrec = None

    # ------------------------------------------------------------------
    # Work intake / results
    # ------------------------------------------------------------------
    def _dispatch(self, op: MMMOp) -> bool:
        for t in self.dispatcher.order(self):
            if self.tiles[t].try_enqueue(op):
                if OBS.enabled:
                    OBS.count(
                        "chip.dispatched",
                        tile=str(t),
                        policy=self.dispatcher.name,
                    )
                return True
        return False

    def submit(self, op: MMMOp) -> None:
        """Route one op to a tile, or hold it in the backlog under pressure."""
        self.submitted += 1
        if not self._dispatch(op):
            self.backlog.append(op)
            if OBS.enabled:
                OBS.count("chip.backlogged")

    @property
    def waves_in_flight(self) -> int:
        return sum(t.array.in_flight for t in self.tiles)

    @property
    def pending(self) -> int:
        """Ops not yet delivered to a consumer (backlog + all tile stages)."""
        return len(self.backlog) + sum(t.pending for t in self.tiles)

    def collect(self) -> List[WaveOutcome]:
        """Every deliverable result across all tiles, tile-stamped."""
        out: List[WaveOutcome] = []
        for tile in self.tiles:
            out.extend(tile.drain_results())
        self.retired += len(out)
        return out

    # ------------------------------------------------------------------
    # Flight recorder (per-tile black boxes + chip-level fan-in)
    # ------------------------------------------------------------------
    def _flightrec_setup(self):
        """Build per-tile recorders + the chip black box when a hub is armed.

        Each tile gets its own bounded recorder over its health signals
        (FIFO depths, stage register, in-flight waves); the chip-level box
        samples the aggregate (busy-tile mask, waves, backlog).  Any tile
        trigger fans in: it freezes the chip box too, so a post-mortem
        shows both the offending tile's window and the chip-wide picture
        around the same cycle.
        """
        hub = OBS.flightrec
        if hub is None or not hub.armed:
            self._flightrec = None
            return None
        if self._flightrec is not None and self._flightrec[0] is hub:
            return self._flightrec
        tile_recs = []
        for i, tile in enumerate(self.tiles):
            ps = ProbeSet.from_values(tile.probe_layout())
            tile_recs.append(
                hub.new_recorder(
                    ps.names,
                    ps.widths,
                    ps.decode,
                    meta={"scope": f"tile{i}", "tile": i, "l": self.l, "engine": self.engine},
                )
            )
        chip_ps = ProbeSet.from_values(
            [("tiles", len(self.tiles)), ("waves", 8), ("backlog", 16)]
        )
        chip_rec = hub.new_recorder(
            chip_ps.names,
            chip_ps.widths,
            chip_ps.decode,
            meta={"scope": "chip", "tiles": len(self.tiles), "l": self.l, "engine": self.engine},
        )
        self._flightrec = (hub, tile_recs, chip_rec)
        return self._flightrec

    def notify_fault(self, tile_index: int, cause: str) -> None:
        """Route a fault event into the tile's recorder (and fan in)."""
        fr = self._flightrec_setup()
        if fr is None:
            return
        _, tile_recs, chip_rec = fr
        rec = tile_recs[tile_index] if 0 <= tile_index < len(tile_recs) else None
        if rec is not None:
            rec.notify_fault(self.cycle, cause)
        if chip_rec is not None:
            chip_rec.notify_fault(self.cycle, f"tile{tile_index}: {cause}")

    def flightrec_flush(self):
        """Emit every triggered recorder's bundle; returns the paths."""
        fr = self._flightrec
        if fr is None:
            return []
        hub, tile_recs, chip_rec = fr
        paths = []
        for rec in list(tile_recs) + [chip_rec]:
            path = hub.emit(rec, cycles=self.cycle)
            if path is not None:
                paths.append(path)
        self._flightrec = None
        return paths

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One shared clock edge: retry backlog, step tiles, record health."""
        while self.backlog and self._dispatch(self.backlog[0]):
            self.backlog.popleft()
        mask = 0
        for i, tile in enumerate(self.tiles):
            tile.step()
            if tile.array.last_step_active:
                mask |= 1 << i
        fr = self._flightrec_setup()
        if fr is not None:
            _, tile_recs, chip_rec = fr
            fired = None
            for i, tile in enumerate(self.tiles):
                rec = tile_recs[i]
                if rec is not None:
                    if rec.wants_sample(self.cycle):
                        rec.sample(self.cycle, tile.probe_values())
                    if rec.triggered and fired is None:
                        fired = (i, rec.cause)
            if chip_rec is not None:
                if chip_rec.wants_sample(self.cycle):
                    chip_rec.sample(
                        self.cycle, (mask, self.waves_in_flight, len(self.backlog))
                    )
                if fired is not None and not chip_rec.triggered:
                    # Trigger fan-in: the first tile trigger freezes the
                    # chip-level black box at the same shared-clock cycle.
                    chip_rec.notify_fault(
                        self.cycle, f"tile{fired[0]} trigger: {fired[1]}"
                    )
        if OBS.enabled:
            occ = OBS.occupancy
            if occ is not None:
                occ.sample("chip.tiles", self.cycle, mask, len(self.tiles))
            OBS.record("chip.waves", self.waves_in_flight)
            for i, tile in enumerate(self.tiles):
                OBS.record("chip.fifo_depth", len(tile.in_fifo), tile=str(i), dir="in")
                OBS.record("chip.fifo_depth", len(tile.out_fifo), tile=str(i), dir="out")
        self.cycle += 1

    # ------------------------------------------------------------------
    # Whole-workload driver
    # ------------------------------------------------------------------
    def run(
        self, ops: Iterable[MMMOp], max_cycles: Optional[int] = None
    ) -> List[WaveOutcome]:
        """Submit ``ops`` then run until drained; outcomes in retirement order."""
        for op in ops:
            self.submit(op)
        return self.run_until_drained(max_cycles)

    def run_until_drained(self, max_cycles: Optional[int] = None) -> List[WaveOutcome]:
        limit = max_cycles
        if limit is None:
            per = self.tiles[0].array
            limit = self.cycle + (self.pending + 1) * (
                per.datapath_cycles + per.issue_interval
            )
        out: List[WaveOutcome] = []
        while self.pending:
            self.step()
            out.extend(self.collect())
            if self.cycle > limit:
                self.flightrec_flush()
                raise SimulationError(
                    f"chip did not drain within {limit} cycles: "
                    f"{len(self.backlog)} backlogged, "
                    f"{self.waves_in_flight} waves in flight"
                )
        self.flightrec_flush()
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChipModel(l={self.l}, tiles={len(self.tiles)}, "
            f"waves={self.waves}, engine={self.engine!r}, cycle={self.cycle})"
        )
