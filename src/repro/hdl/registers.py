"""Structural sequential building blocks.

These helpers elaborate the datapath/control elements of Fig. 3 — parallel
registers, the right-shifting X register, the iteration counter and the
comparator — entirely out of DFFs and 2-input gates, so the full MMMC can
exist as a single flat netlist for census, technology mapping and
gate-level simulation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import HardwareModelError
from repro.hdl.netlist import Circuit, Wire

__all__ = [
    "mux2",
    "mux2_bus",
    "register",
    "shift_register_right",
    "counter",
    "equality_comparator",
    "ripple_adder",
    "ripple_increment",
]


def mux2(circuit: Circuit, sel: Wire, a: Wire, b: Wire, name: str = "mux") -> Wire:
    """2:1 multiplexer: returns ``b`` when ``sel`` else ``a``.

    Built as ``(a AND NOT sel) OR (b AND sel)`` — 2 AND + 1 OR + 1 NOT.
    """
    nsel = circuit.not_(sel, name=f"{name}.nsel")
    pa = circuit.and_(a, nsel, name=f"{name}.a")
    pb = circuit.and_(b, sel, name=f"{name}.b")
    return circuit.or_(pa, pb, name=f"{name}.o")


def mux2_bus(
    circuit: Circuit, sel: Wire, a: List[Wire], b: List[Wire], name: str = "mux"
) -> List[Wire]:
    """Bitwise 2:1 multiplexer over equal-width buses."""
    if len(a) != len(b):
        raise HardwareModelError(f"mux bus widths differ: {len(a)} vs {len(b)}")
    return [mux2(circuit, sel, a[i], b[i], name=f"{name}[{i}]") for i in range(len(a))]


def register(
    circuit: Circuit,
    d: List[Wire],
    name: str = "reg",
    enable: Optional[Wire] = None,
    reset_value: int = 0,
    clear: Optional[Wire] = None,
) -> List[Wire]:
    """Parallel-load register; returns the Q bus (little-endian)."""
    return [
        circuit.dff(
            d[i],
            name=f"{name}[{i}]",
            enable=enable,
            reset_value=(reset_value >> i) & 1,
            clear=clear,
        )
        for i in range(len(d))
    ]


def shift_register_right(
    circuit: Circuit,
    load_data: List[Wire],
    load: Wire,
    shift: Wire,
    name: str = "shreg",
    fill: Optional[Wire] = None,
) -> List[Wire]:
    """Right-shifting register with parallel load (the X register of Fig. 3).

    Priority: ``load`` wins over ``shift``.  On shift, bit ``i`` takes bit
    ``i+1`` and the MSB takes ``fill`` (default constant 0 — the paper fills
    the MSB with 0 so the final iteration sees X(0) = 0).  Returns the Q bus;
    ``q[0]`` is the serial output X(0).
    """
    width = len(load_data)
    if fill is None:
        fill = circuit.const0
    # Placeholder D wires let the DFFs exist before their input logic (the
    # next-state muxes read the DFF outputs); _drive closes each placeholder
    # with a BUF once the logic is built.  The register breaks the cycle, so
    # levelization still sees a DAG.
    #
    # One mux per bit (load overrides the shifted-in value) plus a shared
    # clock enable keeps the per-bit D logic within a single LUT4 — how a
    # loadable shift register actually maps on a Virtex slice.
    en = circuit.or_(load, shift, name=f"{name}.en")
    d_wires = [circuit.new_wire(f"{name}.d{i}") for i in range(width)]
    first = len(circuit.dffs)
    q = [
        circuit.dff(d_wires[i], name=f"{name}[{i}]", enable=en) for i in range(width)
    ]
    # Each bit (mux + D placeholder + flip-flop) is one recorded instance.
    for i in range(width):
        shifted_in = q[i + 1] if i + 1 < width else fill
        with circuit.instance(
            f"{name}.bit", i, dffs=(first + i,),
            load=load, shifted_in=shifted_in, load_data=load_data[i], enable=en,
        ):
            nxt = mux2(circuit, load, shifted_in, load_data[i], name=f"{name}.ld{i}")
            _drive(circuit, d_wires[i], nxt)
    return q


def _drive(circuit: Circuit, placeholder: Wire, source: Wire) -> None:
    """Drive a placeholder wire from ``source`` with a BUF gate.

    The placeholder was created undriven so DFFs could reference it before
    its logic existed; the BUF closes the loop structurally (the simulator's
    levelization still sees a pure DAG because the DFF breaks the cycle).
    """
    idx = circuit._check_wire(placeholder)
    circuit._mark_driven(placeholder)
    from repro.hdl.gates import Gate, GateKind

    circuit.gates.append(Gate(kind=GateKind.BUF, inputs=(source.index,), output=idx))


def ripple_adder(
    circuit: Circuit, a: List[Wire], b: List[Wire], name: str = "add"
) -> Tuple[List[Wire], Wire]:
    """Ripple-carry adder; returns ``(sum bus, carry out)``."""
    from repro.hdl.gates import full_adder, half_adder

    if len(a) != len(b):
        raise HardwareModelError(f"adder widths differ: {len(a)} vs {len(b)}")
    out: List[Wire] = []
    carry: Optional[Wire] = None
    for i in range(len(a)):
        if carry is None:
            s, carry = half_adder(circuit, a[i], b[i], name=f"{name}.ha{i}")
        else:
            s, carry = full_adder(circuit, a[i], b[i], carry, name=f"{name}.fa{i}")
        out.append(s)
    assert carry is not None
    return out, carry


def ripple_increment(
    circuit: Circuit, a: List[Wire], name: str = "inc"
) -> Tuple[List[Wire], Wire]:
    """Increment-by-one logic: a chain of half adders."""
    from repro.hdl.gates import half_adder

    out: List[Wire] = []
    carry = circuit.const1
    for i in range(len(a)):
        s, carry = half_adder(circuit, a[i], carry, name=f"{name}.ha{i}")
        out.append(s)
    return out, carry


def counter(
    circuit: Circuit,
    width: int,
    increment: Wire,
    reset_to_zero: Wire,
    name: str = "ctr",
) -> List[Wire]:
    """Synchronous counter with increment-enable and synchronous clear.

    This is the ``log2(l+2)``-bit iteration counter of Fig. 3.  Clear
    dominates increment, matching the ASM (IDLE resets, MUL2 increments);
    both ride the flip-flops' dedicated CE/SR pins, and the increment
    chain maps onto the slice carry logic.
    """
    d_wires = [circuit.new_wire(f"{name}.d{i}") for i in range(width)]
    q = [
        circuit.dff(
            d_wires[i], name=f"{name}[{i}]", enable=increment, clear=reset_to_zero
        )
        for i in range(width)
    ]
    inc, _ = ripple_increment(circuit, q, name=f"{name}.inc")
    for i in range(width):
        _drive(circuit, d_wires[i], inc[i])
    return q


def equality_comparator(
    circuit: Circuit, bus: List[Wire], constant: int, name: str = "cmp"
) -> Wire:
    """Wide equality test ``bus == constant`` as an XNOR/AND reduction tree."""
    if constant < 0 or constant >> len(bus):
        raise HardwareModelError(
            f"comparator constant {constant} does not fit width {len(bus)}"
        )
    terms = []
    for i, w in enumerate(bus):
        bit = (constant >> i) & 1
        terms.append(
            circuit.buf(w, name=f"{name}.t{i}") if bit else circuit.not_(w, name=f"{name}.t{i}")
        )
    # Balanced AND reduction keeps the comparator depth logarithmic.
    while len(terms) > 1:
        nxt = []
        for j in range(0, len(terms) - 1, 2):
            nxt.append(circuit.and_(terms[j], terms[j + 1], name=f"{name}.and"))
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]
