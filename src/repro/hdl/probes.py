"""Probe registry: named signal taps over netlist wires and model state.

A :class:`ProbeSet` names the signals a flight recorder samples every cycle
and knows how to decode the raw per-cycle samples back into named integer
values.  Two sample layouts exist, matching the two ways state is reachable:

* **wire probes** (``kind="wires"``) — each sample is a flat tuple with one
  entry per netlist wire, in layout order.  The interpreted
  :class:`~repro.hdl.simulator.Simulator` yields 0/1 entries read straight
  from its value array; the compiled engine yields *lane words* (bit ``k``
  of each entry is lane ``k``'s value) produced by the ``__capture`` closure
  codegenned into the kernel, so capture survives compilation and hidden
  closure-cell registers stay samplable (a cell-sliced kernel's raw sample
  holds whole slot words, expanded at decode — see :func:`make_sampler`).
  :meth:`ProbeSet.decode` extracts one lane and reassembles the
  little-endian buses.

* **value probes** (``kind="values"``) — each sample is a flat tuple with
  one already-assembled integer per signal (the behavioral RTL array and
  the chip model expose state this way).  Decoding is a zip; the lane
  argument is ignored.

:func:`mmmc_probe_set` builds the standard probe set over a
:class:`~repro.systolic.mmmc_netlist.MMMCPorts` — controller state, cycle
counter, every fault-injectable register class, RESULT and DONE — chosen so
the compiled engine needs **no extra materialization**: every probed wire
is a register Q (read from its closure cell), a primary input/output, or an
already-watched tap.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.hdl.netlist import Wire

__all__ = ["ProbeSet", "mmmc_probe_set", "make_sampler"]


class ProbeSet:
    """An ordered mapping of signal names to their sample-tuple layout."""

    __slots__ = ("kind", "names", "_layout", "widths", "wire_indices")

    def __init__(self, kind: str, layout: Sequence[Tuple[str, Sequence[int]]]):
        if kind not in ("wires", "values"):
            raise SimulationError(f"probe kind must be 'wires' or 'values', got {kind!r}")
        self.kind = kind
        self.names: Tuple[str, ...] = tuple(name for name, _ in layout)
        if len(set(self.names)) != len(self.names):
            raise SimulationError("duplicate probe names in probe set")
        self._layout: Dict[str, Tuple[int, int]] = {}
        flat: List[int] = []
        for name, wires in layout:
            self._layout[name] = (len(flat), len(wires))
            flat.extend(wires)
        self.wire_indices: Tuple[int, ...] = tuple(flat)
        if kind == "wires":
            self.widths = {name: self._layout[name][1] for name in self.names}
        else:
            # value probes carry whole integers; width is per-signal metadata
            self.widths = {name: max(self._layout[name][1], 1) for name in self.names}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_wires(cls, signals: Sequence[Tuple[str, object]]) -> "ProbeSet":
        """Build a wire probe set from ``(name, Wire-or-bus)`` pairs."""
        layout: List[Tuple[str, List[int]]] = []
        for name, w in signals:
            if isinstance(w, Wire):
                layout.append((name, [w.index]))
            else:
                layout.append((name, [wire.index for wire in w]))
        return cls("wires", layout)

    @classmethod
    def from_values(cls, signals: Sequence[Tuple[str, int]]) -> "ProbeSet":
        """Build a value probe set from ``(name, bit_width)`` pairs.

        Samples are tuples of one integer per signal, in ``signals`` order;
        the width is display metadata for the VCD/ASCII renderers.
        """
        return cls("values", [(name, [0] * max(int(width), 1)) for name, width in signals])

    # ------------------------------------------------------------------
    def width(self, name: str) -> int:
        return self.widths[name]

    def decode(self, sample: Sequence[int], lane: int = 0) -> Dict[str, int]:
        """Named integer values of one sample (one lane for wire probes)."""
        out: Dict[str, int] = {}
        if self.kind == "values":
            for i, name in enumerate(self.names):
                out[name] = int(sample[i])
            return out
        for name in self.names:
            off, width = self._layout[name]
            acc = 0
            for b in range(width):
                acc |= ((sample[off + b] >> lane) & 1) << b
            out[name] = acc
        return out

    def decode_history(
        self, samples: Sequence[Sequence[int]], lane: int = 0
    ) -> Dict[str, List[int]]:
        """Per-signal value histories across a window of samples."""
        hist: Dict[str, List[int]] = {name: [] for name in self.names}
        for s in samples:
            vals = self.decode(s, lane)
            for name in self.names:
                hist[name].append(vals[name])
        return hist


def mmmc_probe_set(ports) -> ProbeSet:
    """The standard flight-recorder probe set over an elaborated MMMC.

    Covers the controller state bits, the MUL-cycle counter, every register
    class :meth:`GateLevelMMMC.fault_sites` can flip (``t``/``c0``/``c1``,
    both pipelines, ``x_shift``, ``RESULT``) and the DONE flag — so any
    injected SEU lands on a recorded signal.
    """
    core = ports.core
    s0, s1 = ports.state
    return ProbeSet.from_wires(
        [
            ("ctl.s0", s0),
            ("ctl.s1", s1),
            ("ctr", ports.counter),
            ("x_shift", ports.x_shift),
            ("t", core.t_regs),
            ("c0", core.c0_regs),
            ("c1", core.c1_regs),
            ("x_pipe", core.x_pipe_regs),
            ("m_pipe", core.m_pipe_regs),
            ("result", ports.result),
            ("done", ports.done),
        ]
    )


def make_sampler(
    sim, probes: ProbeSet
) -> Tuple[Callable[[], Tuple[int, ...]], Callable[[Sequence[int], int], Dict[str, int]]]:
    """``(sampler, decoder)``: a zero-argument tap on ``sim`` and its decode.

    For the interpreted :class:`~repro.hdl.simulator.Simulator` the sampler
    reads the value array directly (peek-based taps) and the decoder is
    :meth:`ProbeSet.decode`.  For a
    :class:`~repro.hdl.compiled.CompiledSimulator` the sampler is the
    kernel's codegenned ``capture_raw`` closure — the only way to observe
    hidden closure-cell registers without flushing — and requires the
    simulator to have been built with the same probe layout.  A cell-sliced
    kernel's raw samples hold whole slot words, so its decoder expands them
    (:meth:`~repro.hdl.compiled.CompiledSimulator.expand_capture`) first;
    the per-cycle cost stays one tuple of references.
    """
    if probes.kind != "wires":
        raise SimulationError("make_sampler needs a wire probe set")
    capture = getattr(sim, "capture_raw", None)
    if capture is None:
        return sim.sampler(probes.wire_indices), probes.decode
    # CompiledSimulator
    if tuple(getattr(sim, "probe_wires", ())) != probes.wire_indices:
        raise SimulationError(
            "compiled simulator was not built with this probe set; pass "
            "probes=probe_set.wire_indices when constructing it"
        )
    if sim.kernel.capture_map is None:
        return capture, probes.decode
    expand = sim.expand_capture
    return capture, lambda sample, lane=0: probes.decode(expand(sample), lane)
