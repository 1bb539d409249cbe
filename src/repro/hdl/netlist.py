"""Structural netlist container.

A :class:`Circuit` owns wires (single-bit nets), combinational gates and
D flip-flops.  Construction is purely structural — nothing is evaluated
until a :class:`repro.hdl.simulator.Simulator` is attached — so the same
object serves simulation, the gate census of Fig. 2's area formula, and
the Virtex-E technology mapper.

Wires are exposed to users as lightweight :class:`Wire` handles; buses are
plain Python lists of wires in little-endian order (index 0 = LSB), the
same convention as :mod:`repro.utils.bits`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import HardwareModelError
from repro.hdl.gates import Gate, GateKind

__all__ = ["Wire", "DFF", "CellInstance", "Circuit"]


@dataclass(frozen=True)
class Wire:
    """Handle to a single-bit net inside a specific circuit."""

    circuit: "Circuit"
    index: int

    @property
    def name(self) -> str:
        return self.circuit.wire_names[self.index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Wire({self.name}#{self.index})"


@dataclass(frozen=True)
class DFF:
    """A D flip-flop: ``q`` follows ``d`` at the clock edge.

    ``enable`` (optional wire index) gates the update; ``clear`` (optional
    wire index) synchronously zeroes the register, dominating the enable —
    this models the dedicated SR pin of a Virtex slice flip-flop, so a
    wire-driven clear costs no LUT fabric.  ``reset_value`` is loaded when
    the simulator's global synchronous reset is asserted.
    """

    d: int
    q: int
    enable: Optional[int]
    reset_value: int
    clear: Optional[int] = None


@dataclass(frozen=True)
class CellInstance:
    """One copy of a repeated cell, recorded at elaboration.

    ``gates`` and ``dffs`` index the instance's own gates and flip-flops in
    :attr:`Circuit.gates` / :attr:`Circuit.dffs`, in template order (every
    instance of a group builds them in the same order).  ``ports`` maps
    each port name to the wire the instance reads there.  The record is
    metadata only: the flat gate list stays the netlist, and the census,
    the Verilog export and the interpreted simulator never read it.  The
    compiled engine uses it to evaluate all instances of a group with one
    word operation per template gate (:mod:`repro.hdl.compiled`).
    """

    group: str
    index: int
    gates: Tuple[int, ...]
    dffs: Tuple[int, ...]
    ports: Tuple[Tuple[str, int], ...]


class Circuit:
    """A flat gate-level netlist.

    The circuit always provides two constant wires, ``const0`` and
    ``const1`` (indices 0 and 1), so constant inputs never need special
    cases in cell builders.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.wire_names: List[str] = []
        self.gates: List[Gate] = []
        self.dffs: List[DFF] = []
        self.inputs: Dict[str, int] = {}
        self.outputs: Dict[str, int] = {}
        # Repeated-cell record (see CellInstance); empty for ad-hoc netlists.
        self.cells: List[CellInstance] = []
        self._driven: set = set()
        self.const0 = self.new_wire("const0")
        self.const1 = self.new_wire("const1")
        self._driven.add(self.const0.index)
        self._driven.add(self.const1.index)

    # ------------------------------------------------------------------
    # Wire management
    # ------------------------------------------------------------------
    def new_wire(self, name: str = "") -> Wire:
        """Create an undriven wire and return its handle."""
        idx = len(self.wire_names)
        self.wire_names.append(name or f"w{idx}")
        return Wire(self, idx)

    def new_bus(self, width: int, name: str = "bus") -> List[Wire]:
        """Create ``width`` wires named ``name[0..width)`` (LSB first)."""
        return [self.new_wire(f"{name}[{i}]") for i in range(width)]

    def add_input(self, name: str, width: int = 1):
        """Declare a primary input; returns a wire (width 1) or bus."""
        if width == 1:
            w = self.new_wire(name)
            self._mark_driven(w)
            self.inputs[name] = w.index
            return w
        bus = self.new_bus(width, name)
        for i, w in enumerate(bus):
            self._mark_driven(w)
            self.inputs[f"{name}[{i}]"] = w.index
        return bus

    def mark_output(self, name: str, wire_or_bus) -> None:
        """Declare a primary output (a wire or a little-endian bus)."""
        if isinstance(wire_or_bus, Wire):
            self.outputs[name] = wire_or_bus.index
        else:
            for i, w in enumerate(wire_or_bus):
                self.outputs[f"{name}[{i}]"] = w.index

    def _check_wire(self, w) -> int:
        if not isinstance(w, Wire) or w.circuit is not self:
            raise HardwareModelError(f"{w!r} is not a wire of circuit {self.name!r}")
        return w.index

    def _mark_driven(self, w: Wire) -> None:
        if w.index in self._driven:
            raise HardwareModelError(f"wire {w.name!r} driven twice")
        self._driven.add(w.index)

    # ------------------------------------------------------------------
    # Gate construction
    # ------------------------------------------------------------------
    def _gate(self, kind: GateKind, ins: Sequence[Wire], name: str) -> Wire:
        indices = tuple(self._check_wire(w) for w in ins)
        out = self.new_wire(name)
        self._mark_driven(out)
        self.gates.append(Gate(kind=kind, inputs=indices, output=out.index))
        return out

    def and_(self, a: Wire, b: Wire, name: str = "and") -> Wire:
        return self._gate(GateKind.AND, (a, b), name)

    def or_(self, a: Wire, b: Wire, name: str = "or") -> Wire:
        return self._gate(GateKind.OR, (a, b), name)

    def xor(self, a: Wire, b: Wire, name: str = "xor") -> Wire:
        return self._gate(GateKind.XOR, (a, b), name)

    def nand(self, a: Wire, b: Wire, name: str = "nand") -> Wire:
        return self._gate(GateKind.NAND, (a, b), name)

    def nor(self, a: Wire, b: Wire, name: str = "nor") -> Wire:
        return self._gate(GateKind.NOR, (a, b), name)

    def xnor(self, a: Wire, b: Wire, name: str = "xnor") -> Wire:
        return self._gate(GateKind.XNOR, (a, b), name)

    def not_(self, a: Wire, name: str = "not") -> Wire:
        return self._gate(GateKind.NOT, (a,), name)

    def buf(self, a: Wire, name: str = "buf") -> Wire:
        return self._gate(GateKind.BUF, (a,), name)

    # ------------------------------------------------------------------
    # Sequential construction
    # ------------------------------------------------------------------
    def dff(
        self,
        d: Wire,
        name: str = "dff",
        enable: Optional[Wire] = None,
        reset_value: int = 0,
        clear: Optional[Wire] = None,
    ) -> Wire:
        """Attach a D flip-flop driven by ``d``; returns the ``q`` wire.

        ``clear`` is a synchronous zero-strobe (the slice FF's SR pin); it
        dominates ``enable``.
        """
        if reset_value not in (0, 1):
            raise HardwareModelError(f"reset_value must be 0/1, got {reset_value}")
        d_idx = self._check_wire(d)
        en_idx = self._check_wire(enable) if enable is not None else None
        clr_idx = self._check_wire(clear) if clear is not None else None
        q = self.new_wire(f"{name}.q")
        self._mark_driven(q)
        self.dffs.append(
            DFF(d=d_idx, q=q.index, enable=en_idx, reset_value=reset_value, clear=clr_idx)
        )
        return q

    # ------------------------------------------------------------------
    # Repeated-cell record
    # ------------------------------------------------------------------
    @contextmanager
    def instance(
        self, group: str, index: int, dffs: Sequence[int] = (), **ports: Wire
    ) -> Iterator[None]:
        """Record the gates built inside the ``with`` block as one cell instance.

        Flip-flops created inside the block belong to the instance too;
        ``dffs`` adds indices into :attr:`dffs` of ones created earlier (so
        their Qs could be read before the logic existed).  ``ports`` names
        the wires the instance reads.
        """
        start, start_ff = len(self.gates), len(self.dffs)
        yield
        self.cells.append(
            CellInstance(
                group=group,
                index=index,
                gates=tuple(range(start, len(self.gates))),
                dffs=tuple(dffs) + tuple(range(start_ff, len(self.dffs))),
                ports=tuple((name, self._check_wire(w)) for name, w in ports.items()),
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_wires(self) -> int:
        return len(self.wire_names)

    def undriven_wires(self) -> List[str]:
        """Names of wires that are read by a gate/DFF but never driven.

        An elaborated design should return an empty list; the structural
        tests assert this.
        """
        read: set = set()
        for g in self.gates:
            read.update(g.inputs)
        for f in self.dffs:
            read.add(f.d)
            if f.enable is not None:
                read.add(f.enable)
            if f.clear is not None:
                read.add(f.clear)
        missing = sorted(read - self._driven)
        return [self.wire_names[i] for i in missing]

    def validate(self) -> None:
        """Raise :class:`HardwareModelError` if the netlist is malformed."""
        missing = self.undriven_wires()
        if missing:
            raise HardwareModelError(
                f"circuit {self.name!r} has undriven wires: {missing[:10]}"
                + ("..." if len(missing) > 10 else "")
            )

    def structural_key(self) -> str:
        """Stable digest of the netlist *structure* (not the wire names).

        Two circuits with identical gate/flip-flop wiring and identical
        input/output index maps share a key, so the compiled-kernel cache
        (:mod:`repro.hdl.compiled`) recognizes a re-elaborated netlist —
        the exponentiator's ~2l multiplications at one ``l``, or every
        serving batch at the same width — and compiles it exactly once.
        The digest is memoized; appending wires, gates or flip-flops
        invalidates the memo.  A recorded cell-instance list is part of
        the digest (it changes the compiled kernel); a circuit without one
        hashes exactly as before the record existed.
        """
        shape = (self.num_wires, len(self.gates), len(self.dffs), len(self.cells))
        cached = getattr(self, "_structural_key", None)
        if cached is not None and cached[0] == shape:
            return cached[1]
        h = hashlib.sha256()
        h.update(repr(shape[:3]).encode())
        for g in self.gates:
            h.update(f"g{g.kind.value}{g.inputs}{g.output};".encode())
        for f in self.dffs:
            h.update(f"f{f.d},{f.q},{f.enable},{f.reset_value},{f.clear};".encode())
        h.update(repr(sorted(self.inputs.values())).encode())
        h.update(repr(sorted(self.outputs.values())).encode())
        for cell in self.cells:
            h.update(f"c{cell.group},{cell.index},{cell.gates},{cell.dffs},{cell.ports};".encode())
        key = h.hexdigest()
        self._structural_key = (shape, key)
        return key

    def stats(self) -> Dict[str, int]:
        """Quick size summary: wires, gates, flip-flops."""
        return {
            "wires": self.num_wires,
            "gates": len(self.gates),
            "dffs": len(self.dffs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"Circuit({self.name!r}, wires={s['wires']}, "
            f"gates={s['gates']}, dffs={s['dffs']})"
        )
