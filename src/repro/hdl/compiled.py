"""Codegen'd bit-sliced simulation engine.

The interpreted :class:`~repro.hdl.simulator.Simulator` walks the levelized
gate list one dict/list access at a time, every cycle.  This module compiles
a :class:`~repro.hdl.netlist.Circuit` **once** into flat Python functions —
a combinational *settle* kernel, a flip-flop *clock* kernel and a fused
full-cycle *step* kernel — and then evaluates cycles by calling them, which
removes all per-gate interpreter dispatch:

* **Codegen.**  The combinational cloud is emitted in topological order as
  straight-line assignments over local variables.  Wires driven by
  ``const0``/``const1`` are folded at compile time, and single-fanout gates
  (NOT/AND/XOR chains — the bulk of the paper's half/full adders) are
  collapsed into their consumer's expression, so a full adder becomes one
  line of Python instead of five closure calls.

* **Register state in closure cells.**  The kernels are emitted as closures
  of a per-simulator factory.  Flip-flop Qs that nothing outside the kernel
  observes (not a primary output, not watched) live as closure variables —
  ``LOAD_DEREF``/``STORE_DEREF`` instead of a list subscript per read and
  write — and capture writes are topologically ordered so only genuine
  register cycles (FSM feedback, counters) need a pre-edge temporary.

* **Bit-sliced lanes.**  Every wire value is an arbitrary-width Python int
  holding K independent simulations, one per bit (``mask = (1 << K) - 1``).
  ``a & b`` then evaluates K AND gates at once, and ``NOT a`` becomes
  ``mask ^ a``.  The generated kernels take the mask at bind time, so the
  **same** compiled kernel source serves any lane count, and a simulator
  changes its lane count by calling the factory again.

* **Cell-sliced groups.**  A netlist that records repeated cells
  (:attr:`Circuit.cells <repro.hdl.netlist.Circuit.cells>`: the MMMC's
  regular array cells, X shift-register bits, token chain and RESULT
  bits) compiles one word operation per *template* gate for each group of
  isomorphic instances.  Its slot words hold bit ``j·L + k`` = instance
  ``j``, lane ``k``; the registers a group reads or owns live in such
  words, so a neighbour feed is a shift by ``L`` (``2L`` for the
  two-cycle x/m pipelines, whose stages each sit in two slots).  Every
  other gate and register — controller, counter, edge cells — stays one
  lane word per wire, emitted exactly as for a netlist without groups,
  and reads slot bits through shift-and-mask extractions
  (:mod:`repro.hdl.cellslice`).  A group that is not isomorphic, owns a
  watched register or feeds itself combinationally compiles per gate;
  ``watch="all"`` compiles every gate per gate.  ``CompiledSimulator``
  maps slot wires onto their bits for ``poke``/``peek``/``flip``/
  ``capture`` and ``state_vector``.  Since an operation spans every
  instance's slots, its cost grows with the lane count, which is why the
  serving backends rebind one simulator per width to each group's exact
  size (:meth:`CompiledSimulator.rebind`).

* **Kernel cache.**  Compiled kernels are cached in a small LRU keyed by
  :meth:`Circuit.structural_key` (plus the watch signature), so the
  exponentiator's ~2l multiplications at one ``l`` — and every serving batch
  at the same width — compile exactly once.

Because gates that are folded or inlined never hit the value array — and
unobserved registers never leave their closure cells — reading an arbitrary
internal wire requires declaring it up front via ``watch`` (``watch="all"``
materializes every gate output and register; the differential tests use
this to compare engines wire-for-wire).  Primary inputs, primary outputs,
watched wires and slot-word registers are always readable.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.hdl.gates import GateKind
from repro.hdl.netlist import Circuit, Wire
from repro.hdl.simulator import levelize
from repro.observability import OBS

__all__ = [
    "CompiledKernel",
    "CompiledSimulator",
    "compile_kernel",
    "pack_lanes",
    "unpack_lanes",
    "pack_slots",
    "unpack_slots",
    "slots_below",
    "kernel_cache_info",
    "clear_kernel_cache",
]

# Expressions deeper than this (or longer than _MAX_INLINE_CHARS) are cut
# at a local variable even if single-fanout, to keep the generated source
# readable and the CPython compiler happy.
_MAX_INLINE_DEPTH = 24
_MAX_INLINE_CHARS = 640
_KERNEL_CACHE_MAX = 128

# Word operators of a generated kernel, counted per fused step.
_OP_RE = re.compile(r"<<|>>|[&|^*]")

_CONST0 = 0  # wire index of const0 in every Circuit
_CONST1 = 1  # wire index of const1

_IND = "        "  # body indent of the factory's inner functions


class _Expr(NamedTuple):
    """A wire's compile-time value: expression text + inlining bookkeeping."""

    text: str
    depth: int
    atomic: bool  # single token; needs no parentheses when embedded


def _paren(e: _Expr) -> str:
    return e.text if e.atomic else f"({e.text})"


def _not_expr(a: _Expr, one: str = "m") -> _Expr:
    if a.text == "0":
        return _Expr(one, 0, True)
    if a.text == one:
        return _Expr("0", 0, True)
    return _Expr(f"{one} ^ {_paren(a)}", a.depth + 1, False)


def _and_expr(a: _Expr, b: _Expr, one: str = "m") -> _Expr:
    if a.text == "0" or b.text == "0":
        return _Expr("0", 0, True)
    if a.text == one:
        return b
    if b.text == one:
        return a
    return _Expr(f"{_paren(a)} & {_paren(b)}", 1 + max(a.depth, b.depth), False)


def _or_expr(a: _Expr, b: _Expr, one: str = "m") -> _Expr:
    if a.text == one or b.text == one:
        return _Expr(one, 0, True)
    if a.text == "0":
        return b
    if b.text == "0":
        return a
    return _Expr(f"{_paren(a)} | {_paren(b)}", 1 + max(a.depth, b.depth), False)


def _xor_expr(a: _Expr, b: _Expr, one: str = "m") -> _Expr:
    if a.text == "0":
        return b
    if b.text == "0":
        return a
    if a.text == one:
        return _not_expr(b, one)
    if b.text == one:
        return _not_expr(a, one)
    return _Expr(f"{_paren(a)} ^ {_paren(b)}", 1 + max(a.depth, b.depth), False)


def _gate_expr(kind: GateKind, a: _Expr, b: Optional[_Expr], one: str = "m") -> _Expr:
    """Expression of one gate; ``one`` is the all-ones token of the word
    (the lane mask ``m``, or a slot word's full mask)."""
    if kind is GateKind.AND:
        return _and_expr(a, b, one)
    if kind is GateKind.OR:
        return _or_expr(a, b, one)
    if kind is GateKind.XOR:
        return _xor_expr(a, b, one)
    if kind is GateKind.NAND:
        return _not_expr(_and_expr(a, b, one), one)
    if kind is GateKind.NOR:
        return _not_expr(_or_expr(a, b, one), one)
    if kind is GateKind.XNOR:
        return _not_expr(_xor_expr(a, b, one), one)
    if kind is GateKind.NOT:
        return _not_expr(a, one)
    if kind is GateKind.BUF:
        return a
    raise SimulationError(f"cannot compile gate kind {kind!r}")  # pragma: no cover


class CompiledKernel:
    """One compiled netlist: the exec'd kernel factory + metadata.

    The factory binds a value array and lane mask, returning the
    ``(settle, clock, step, load, flush)`` closures for one simulator
    instance; hidden-register state lives in the closure, so one kernel
    serves every structurally-identical :class:`Circuit` (the cache relies
    on this) while instances stay independent.
    """

    __slots__ = (
        "key",
        "name",
        "factory",
        "src",
        "readable",
        "hidden",
        "probes",
        "num_gates",
        "num_wires",
        "banks",
        "homes",
        "step_ops",
        "capture_map",
    )

    def __init__(
        self,
        key: Tuple[str, object, Tuple[int, ...]],
        name: str,
        factory,
        src: str,
        readable: FrozenSet[int],
        hidden: FrozenSet[int],
        probes: Tuple[int, ...],
        num_gates: int,
        num_wires: int,
        banks: Tuple[Tuple[int, ...], ...] = (),
        homes: Optional[Dict[int, Tuple[Tuple[int, int], ...]]] = None,
        step_ops: int = 0,
        capture_map: Optional[Tuple[Tuple[int, int], ...]] = None,
    ) -> None:
        self.key = key
        self.name = name
        self.factory = factory
        self.src = src
        self.readable = readable
        self.hidden = hidden
        self.probes = probes
        self.num_gates = num_gates
        self.num_wires = num_wires
        #: slot words of a cell-sliced kernel: the wire in each slot
        self.banks = banks
        #: wire -> ((bank, slot), ...) for every slot-resident wire
        self.homes = homes or {}
        #: word operations (``& | ^ << >> *``) in the fused step kernel
        self.step_ops = step_ops
        #: per probe, (entry, slot) into a compact capture sample (slot -1:
        #: the entry is the lane word); None when samples are already flat
        self.capture_map = capture_map

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledKernel({self.name!r}, gates={self.num_gates}, "
            f"{len(self.src.splitlines())} lines, hidden={len(self.hidden)})"
        )


# ----------------------------------------------------------------------
# Codegen
# ----------------------------------------------------------------------
def _settle_body(
    circuit: Circuit,
    materialize: FrozenSet[int],
    hidden: FrozenSet[int],
    extra_fanout: Optional[Dict[int, int]] = None,
) -> Tuple[List[str], Dict[int, _Expr]]:
    """Emit the combinational cloud; return (lines, wire -> expression map).

    ``materialize`` lists the gate-output wire indices that must land in the
    value array ``v``; all other gate outputs live as locals or are inlined
    away.  Register Qs in ``hidden`` are read as closure cells (``q<i>``)
    rather than ``v`` subscripts.  ``extra_fanout`` adds consumer counts
    beyond gate inputs (the fused step kernel counts flip-flop reads here so
    a wire feeding several registers becomes a shared local instead of a
    re-evaluated expression).
    """
    order = levelize(circuit)
    gates = circuit.gates
    fanout: Dict[int, int] = dict(extra_fanout) if extra_fanout else {}
    for g in gates:
        for w in g.inputs:
            fanout[w] = fanout.get(w, 0) + 1

    expr: Dict[int, _Expr] = {
        _CONST0: _Expr("0", 0, True),
        _CONST1: _Expr("m", 0, True),
    }

    def wire_expr(w: int) -> _Expr:
        e = expr.get(w)
        if e is None:  # primary input / DFF q
            if w in hidden:
                return _Expr(f"q{w}", 0, True)
            return _Expr(f"v[{w}]", 0, True)
        return e

    lines: List[str] = []
    for gi in order:
        g = gates[gi]
        a = wire_expr(g.inputs[0])
        b = wire_expr(g.inputs[1]) if len(g.inputs) > 1 else None
        out = g.output
        _place_gate(
            out, _gate_expr(g.kind, a, b), out in materialize, fanout.get(out, 0), lines, expr
        )
    return lines, expr


def _place_gate(
    out: int, e: _Expr, mat: bool, uses: int, lines: List[str], expr: Dict[int, _Expr]
) -> None:
    """Emit (or inline) one gate output's expression; record how to read it."""
    if e.text in ("0", "m"):
        # Constant-folded: consumers embed the literal; only emit a
        # store if something outside the cloud reads this wire.
        if mat:
            lines.append(f"{_IND}v[{out}] = {e.text}")
        expr[out] = e
    elif (
        not mat
        and uses <= 1
        and e.depth < _MAX_INLINE_DEPTH
        and len(e.text) < _MAX_INLINE_CHARS
    ):
        expr[out] = e  # inline into the single consumer
    elif mat and uses == 0:
        lines.append(f"{_IND}v[{out}] = {e.text}")
        expr[out] = _Expr(f"v[{out}]", 0, True)
    else:
        lines.append(f"{_IND}w{out} = {e.text}")
        if mat:
            lines.append(f"{_IND}v[{out}] = w{out}")
        expr[out] = _Expr(f"w{out}", 0, True)


def _dff_specs(dffs) -> List[Tuple[int, Optional[int], Optional[int], Optional[int]]]:
    """Fold constant enables/clears out of the DFF list.

    Returns ``(q, d, enable, clear)`` tuples with ``None`` meaning "always
    enabled" / "never cleared"; registers that can never change (enable tied
    to const0, no clear) are dropped entirely.
    """
    specs: List[Tuple[int, Optional[int], Optional[int], Optional[int]]] = []
    for f in dffs:
        en: Optional[int] = f.enable
        clr: Optional[int] = f.clear
        if en == _CONST1:
            en = None  # always enabled
        if clr == _CONST0:
            clr = None  # never cleared
        if clr == _CONST1:
            specs.append((f.q, None, None, _CONST1))  # held clear
            continue
        if en == _CONST0:
            if clr is None:
                continue  # never captures, never clears: q holds
            specs.append((f.q, None, _CONST0, clr))
            continue
        specs.append((f.q, f.d, en, clr))
    return specs


def _one_operand(text: str) -> bool:
    """True when ``text`` has no operator outside parentheses."""
    if " " not in text:
        return True
    if not (text.startswith("(") and text.endswith(")")):
        return False
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and i < len(text) - 1:
            return False
    return True


def _mux(own: str, d: _Expr, e: str) -> str:
    """The enable mux ``own ^ ((own ^ d) & e)``, toggle flip-flops folded.

    A counter bit's D is ``own ^ w`` (or ``m ^ own`` for bit 0), so the
    mux reduces to ``own ^ (w & e)`` (or ``own ^ e``): two or three fewer
    word operations per strobed toggle register.
    """
    text = d.text
    for pre, post in ((f"{own} ^ ", ""), ("", f" ^ {own}")):
        if text.startswith(pre) and text.endswith(post) and len(text) > len(pre + post):
            w = text[len(pre) : len(text) - len(post)]
            if _one_operand(w):
                return f"{own} ^ {e}" if w == "m" else f"{own} ^ ({w} & {e})"
    return f"{own} ^ (({own} ^ {_paren(d)}) & {e})"


def _capture_blocks(specs, ref, qtok) -> List[Tuple[str, List[str]]]:
    """Build the per-register capture blocks (one small line group each).

    ``clear`` dominates ``enable`` (the Virtex SR pin semantics the
    netlists rely on); per-lane masks keep both strobes independent across
    lanes.  The enable mux uses the xor form — one operation and two loads
    cheaper than the and/or mux::

        q' = q ^ ((q ^ d) & e)            then  & (m ^ c)  if cleared

    (``q ^ (w & e)`` when ``d = q ^ w``: see :func:`_mux`).

    Strobed registers are emitted behind a runtime guard: when the enable
    (and clear) lane word is all-zero the register holds, so the whole mux
    — including any D expression inlined into it — is skipped.  Operand
    registers thus cost one truth test outside their load cycle, and the
    array's phase-alternating T/C registers skip every other cycle; lanes
    stay independent because a partially-set strobe word takes the masked
    path, which is a per-lane no-op wherever the strobe bit is 0.
    """

    def tok(e: _Expr, q: int, prefix: str, lines: List[str]) -> str:
        # Guard tests evaluate the strobe once; hoist non-atomic strobes.
        if e.atomic:
            return e.text
        lines.append(f"{_IND}{prefix}{q} = {e.text}")
        return f"{prefix}{q}"

    blocks: List[Tuple[str, List[str]]] = []
    for q, d, en, clr in specs:
        own = qtok(q)
        lines: List[str] = []
        if d is None and clr == _CONST1:
            lines.append(f"{_IND}{own} = 0")
        elif d is None and en == _CONST0:
            c = tok(ref(clr), q, "c", lines)
            lines.append(f"{_IND}if {c}:")
            lines.append(f"{_IND}    {own} = {own} & (m ^ {c})")
        elif en is None and clr is None:
            lines.append(f"{_IND}{own} = {_paren(ref(d))}")
        elif clr is None:
            e = tok(ref(en), q, "e", lines)
            lines.append(f"{_IND}if {e}:")
            lines.append(f"{_IND}    {own} = {_mux(own, ref(d), e)}")
        elif en is None:
            c = tok(ref(clr), q, "c", lines)
            dd = tok(ref(d), q, "d", lines)
            lines.append(f"{_IND}{own} = {dd} & (m ^ {c}) if {c} else {dd}")
        else:
            e = tok(ref(en), q, "e", lines)
            c = tok(ref(clr), q, "c", lines)
            mux = _mux(own, ref(d), e)
            lines.append(f"{_IND}if {c}:")
            lines.append(f"{_IND}    {own} = ({mux}) & (m ^ {c})")
            lines.append(f"{_IND}elif {e}:")
            lines.append(f"{_IND}    {own} = {mux}")
        blocks.append((own, lines))
    return blocks


# Register tokens in generated source: value-array slots, hidden register
# closure cells (``q<wire>``) and slot words (``s<bank>``).
_TOK_RE = re.compile(r"v\[\d+\]|\b[qs]\d+\b")


def _token_re(tok: str):
    return re.compile(re.escape(tok) if tok.startswith("v[") else r"\b%s\b" % tok)


def _order_writes(blocks: List[Tuple[str, List[str]]]) -> Tuple[List[str], List[str]]:
    """Order capture blocks so reads observe pre-edge values.

    ``blocks`` pairs each written register token with its lines.  All
    flip-flops capture simultaneously, but the writes execute one at a
    time; a write must therefore run before any register it *reads* is
    overwritten.  Topologically ordering the writes handles every register
    chain (shift registers, pipelines, the token chain) with zero
    temporaries; only genuine cycles — FSM feedback, counter increments —
    fall back to latching the pre-edge value in an ``r<i>`` local emitted
    before the writes.  Register references are found textually (``v[i]`` /
    ``q<i>`` / ``s<i>`` tokens), so reads buried in inlined subexpressions
    count too.
    """
    targets = {t for t, _ in blocks}
    tq = [t for t, _ in blocks]
    texts = [list(lines) for _, lines in blocks]
    reads: List[set] = []
    for i, lines in enumerate(texts):
        rd = set(_TOK_RE.findall("\n".join(lines)))
        # Own reads are safe in place: the RHS evaluates before the store.
        reads.append({t for t in rd if t in targets and t != tq[i]})
    readers_of: Dict[str, set] = {t: set() for t in targets}
    for i, rd in enumerate(reads):
        for t in rd:
            readers_of[t].add(i)

    pending = set(range(len(blocks)))
    pre_lines: List[str] = []
    out_lines: List[str] = []
    while pending:
        ready = sorted(i for i in pending if not (readers_of[tq[i]] & pending))
        if ready:
            for i in ready:
                pending.discard(i)
                out_lines.extend(texts[i])
            continue
        # Every pending write sits on a register cycle: break the first one
        # by latching its pre-edge value and rewriting the pending readers.
        i = min(pending)
        qt = tq[i]
        name = "r" + (qt[2:-1] if qt.startswith("v[") else qt.lstrip("q"))
        pre_lines.append(f"{_IND}{name} = {qt}")
        pat = _token_re(qt)

        def repoint(line: str) -> str:
            # Rewrite reads only — assignment targets keep storing to the
            # real register; guard lines (`if e:`) have no target.
            lhs, sep, rhs = line.partition(" = ")
            if not sep:
                return pat.sub(name, line)
            return lhs + sep + pat.sub(name, rhs)

        for j in pending:
            if qt in reads[j] or qt == tq[j]:
                texts[j] = [repoint(ln) for ln in texts[j]]
                reads[j].discard(qt)
        readers_of[qt] = set()
    return pre_lines, out_lines


def _nonlocal_lines(names: List[str]) -> List[str]:
    lines = []
    for i in range(0, len(names), 16):
        lines.append(f"{_IND}nonlocal " + ", ".join(names[i : i + 16]))
    return lines


def _emit_factory(
    circuit: Circuit,
    mat_split: FrozenSet[int],
    mat_fused: FrozenSet[int],
    hidden: FrozenSet[int],
    probes: Tuple[int, ...] = (),
) -> str:
    """Generate the kernel-factory source.

    The factory takes the value array and lane mask and returns six
    closures: the split ``settle``/``clock`` phase pair, the fused ``step``
    (one full cycle, register inputs consumed straight from the
    combinational cloud's locals without a value-array round trip),
    ``load``/``flush`` to move hidden-register state between the closure
    cells and the value array (reset, pokes of internal state), and
    ``capture`` — the flight-recorder tap, returning the probed wires'
    current lane words as one flat tuple.  Hidden register Qs are read
    straight from their closure cells, so probing costs no materialization
    and nothing when ``capture`` is never called.
    """
    q_wires = frozenset(f.q for f in circuit.dffs)

    def qtok(w: int) -> str:
        return f"q{w}" if w in hidden else f"v[{w}]"

    specs = _dff_specs(circuit.dffs)

    # Fused-step fanout: strobes appear in the guard test and in the mux,
    # so giving them a count of 2 forces shared-gate enables into settle
    # locals instead of re-evaluated inline expressions.
    uses: Dict[int, int] = {}
    for _, d, en, clr in specs:
        for w, times in ((d, 1), (en, 2), (clr, 2)):
            if w is not None and w not in (_CONST0, _CONST1):
                uses[w] = uses.get(w, 0) + times

    settle_split, _ = _settle_body(circuit, mat_split, hidden)
    settle_fused, expr = _settle_body(circuit, mat_fused, hidden, extra_fanout=uses)

    def ref_split(w: int) -> _Expr:
        if w == _CONST0:
            return _Expr("0", 0, True)
        if w == _CONST1:
            return _Expr("m", 0, True)
        if w in q_wires:
            return _Expr(qtok(w), 0, True)
        return _Expr(f"v[{w}]", 0, True)  # materialized by mat_split

    def ref_fused(w: int) -> _Expr:
        e = expr.get(w)
        if e is not None:
            return e
        if w in hidden:
            return _Expr(f"q{w}", 0, True)
        return _Expr(f"v[{w}]", 0, True)

    clock_pre, clock_out = _order_writes(_capture_blocks(specs, ref_split, qtok))
    step_pre, step_out = _order_writes(_capture_blocks(specs, ref_fused, qtok))

    hid_sorted = sorted(hidden)
    hid_names = [f"q{w}" for w in hid_sorted]
    written_hidden = sorted({q for q, _, _, _ in specs if q in hidden})
    wh_names = [f"q{w}" for w in written_hidden]

    lines: List[str] = ["def __kernel_factory(v, m):"]
    for w in hid_sorted:
        lines.append(f"    q{w} = v[{w}]")

    lines.append("    def __load():")
    if hid_sorted:
        lines += _nonlocal_lines(hid_names)
        lines += [f"{_IND}q{w} = v[{w}]" for w in hid_sorted]
    else:
        lines.append(f"{_IND}pass")

    lines.append("    def __flush():")
    if hid_sorted:
        lines += [f"{_IND}v[{w}] = q{w}" for w in hid_sorted]
    else:
        lines.append(f"{_IND}pass")

    lines.append("    def __settle():")
    lines += settle_split or [f"{_IND}pass"]

    lines.append("    def __clock():")
    clock_body = clock_pre + clock_out
    if clock_body:
        lines += _nonlocal_lines(wh_names)
        lines += clock_body
    else:
        lines.append(f"{_IND}pass")

    lines.append("    def __step():")
    step_body = settle_fused + step_pre + step_out
    if step_body:
        lines += _nonlocal_lines(wh_names)
        lines += step_body
    else:
        lines.append(f"{_IND}pass")

    lines.append("    def __capture():")
    if probes:
        toks = ", ".join(qtok(w) for w in probes)
        lines.append(f"{_IND}return ({toks},)")
    else:
        lines.append(f"{_IND}return ()")

    lines.append("    return __settle, __clock, __step, __load, __flush, __capture")
    return "\n".join(lines) + "\n"


def _wire_index(w: Union[Wire, int]) -> int:
    return w.index if isinstance(w, Wire) else int(w)


def _compile(circuit: Circuit, key: Tuple[str, object, Tuple[int, ...]]) -> CompiledKernel:
    wkey = key[1]
    probes = key[2]
    gate_outputs = frozenset(g.output for g in circuit.gates)
    q_wires = frozenset(f.q for f in circuit.dffs)
    if wkey == "all":
        mat_fused = gate_outputs
        mat_split = gate_outputs
        hidden: FrozenSet[int] = frozenset()
    else:
        # The fused step kernel consumes register inputs as locals, so only
        # primary outputs and watched wires must reach the value array; the
        # split settle/clock pair additionally materializes every
        # D/enable/clear source (the clock kernel reads them from v).
        # Registers nobody outside observes stay in closure cells.
        want = set(wkey)
        want.update(circuit.outputs.values())
        # Probed combinational wires must land in v for __capture to read;
        # probed register Qs stay hidden (the capture closure reads their
        # closure cells directly), so probing never changes register layout.
        want.update(set(probes) - q_wires)
        mat_fused = frozenset(want & gate_outputs)
        hidden = frozenset(q_wires - want)
        for f in circuit.dffs:
            want.add(f.d)
            if f.enable is not None:
                want.add(f.enable)
            if f.clear is not None:
                want.add(f.clear)
        mat_split = frozenset(want & gate_outputs)

    sliced = None
    if wkey != "all" and circuit.cells:
        # Imported here so netlists without a cell record never load it.
        from repro.hdl.cellslice import compile_sliced

        sliced = compile_sliced(circuit, frozenset(wkey), mat_fused, hidden, probes)
    if sliced is None:
        banks, capture_map = (), None
        src = _emit_factory(circuit, mat_split, mat_fused, hidden, probes)
    else:
        src, banks, hidden, capture_map = sliced
    ns: Dict[str, object] = {"__posmask": _posmask, "__pack": _pack}
    exec(compile(src, f"<compiled:{circuit.name}>", "exec"), ns)
    # Peekability is advertised for the fused kernel (the fast path); the
    # split kernels materialize strictly more combinational wires.  Slot-word
    # wires stay readable through the simulator's slot mapping.
    readable = frozenset(range(circuit.num_wires)) - (gate_outputs - mat_fused) - hidden
    homes: Dict[int, List[Tuple[int, int]]] = {}
    for bi, wires in enumerate(banks):
        for pos, w in enumerate(wires):
            homes.setdefault(w, []).append((bi, pos))
    step = src.split("    def __step():\n", 1)[1].split("    def __capture():", 1)[0]
    return CompiledKernel(
        key=key,
        name=circuit.name,
        factory=ns["__kernel_factory"],
        src=src,
        readable=readable,
        hidden=hidden,
        probes=probes,
        num_gates=len(circuit.gates),
        num_wires=circuit.num_wires,
        banks=tuple(banks),
        homes={w: tuple(h) for w, h in homes.items()},
        step_ops=len(_OP_RE.findall(step)),
        capture_map=capture_map,
    )


def _posmask(m: int, lanes: int, positions: Sequence[int]) -> int:
    """Slot word with every lane of the given slots set."""
    word = 0
    for p in positions:
        word |= m << (p * lanes)
    return word


def _pack(v: Sequence[int], lanes: int, wires: Sequence[int]) -> int:
    """Slot word holding the value-array lane words of ``wires``."""
    word = 0
    for p, w in enumerate(wires):
        word |= v[w] << (p * lanes)
    return word


# ----------------------------------------------------------------------
# Kernel cache
# ----------------------------------------------------------------------
_CACHE_LOCK = threading.Lock()
_KERNEL_CACHE: "OrderedDict[Tuple[str, object], CompiledKernel]" = OrderedDict()


def compile_kernel(
    circuit: Circuit, watch: object = (), probes: Sequence[object] = ()
) -> CompiledKernel:
    """Fetch (or build) the compiled kernel for ``circuit``.

    ``watch`` is either the string ``"all"`` or an iterable of wires/indices
    that must stay peekable after each settle.  ``probes`` is an *ordered*
    sequence of wires/indices the kernel's ``capture`` closure returns each
    time it is called (the flight-recorder tap).  The cache key is
    ``(circuit.structural_key(), watch signature, probe signature)`` — the
    lane count is deliberately *not* part of the key, since kernels take
    the lane mask at bind time.
    """
    circuit.validate()
    if watch == "all":
        wkey: object = "all"
    else:
        wkey = frozenset(_wire_index(w) for w in watch)  # type: ignore[union-attr]
    pkey = tuple(_wire_index(w) for w in probes)
    key = (circuit.structural_key(), wkey, pkey)
    with _CACHE_LOCK:
        kern = _KERNEL_CACHE.get(key)
        if kern is not None:
            _KERNEL_CACHE.move_to_end(key)
            if OBS.enabled:
                OBS.count("hdl.compile_cache_hits")
            return kern
        if OBS.enabled:
            OBS.count("hdl.compile_cache_misses")
        kern = _compile(circuit, key)
        _KERNEL_CACHE[key] = kern
        while len(_KERNEL_CACHE) > _KERNEL_CACHE_MAX:
            _KERNEL_CACHE.popitem(last=False)
        return kern


def kernel_cache_info() -> Dict[str, int]:
    """Current kernel-cache occupancy (for tests and diagnostics)."""
    with _CACHE_LOCK:
        return {"size": len(_KERNEL_CACHE), "max_size": _KERNEL_CACHE_MAX}


def clear_kernel_cache() -> None:
    """Drop every cached kernel (tests use this to force recompiles)."""
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()


# ----------------------------------------------------------------------
# Lane packing helpers
# ----------------------------------------------------------------------
# Every direction is one bit-matrix transpose done in C: every row is
# formatted as a fixed-width binary string (most significant bit first),
# the rows are concatenated, and each column is a strided slice of that
# string, parsed back with ``int(..., 2)``.  No Python loop touches a bit.
def _check_fit(values: Sequence[int], width: int) -> None:
    """Raise for the first lane whose value does not fit ``width`` bits."""
    if values and (min(values) < 0 or max(values) >> width):
        for k, val in enumerate(values):
            if val < 0 or (width < val.bit_length()):
                raise SimulationError(
                    f"lane {k} value {val} does not fit bus of width {width}"
                )


def pack_lanes(values: Sequence[int], width: int) -> List[int]:
    """Bit-slice per-lane integers into per-wire lane words.

    ``values[k]`` is lane k's little-endian bus value; the result's entry
    ``i`` holds bit ``i`` of every lane, lane k in bit position k —
    exactly the layout a ``width``-wide bus of packed wires uses.
    """
    _check_fit(values, width)
    if not values or not width:
        return [0] * width
    # The last lane's row comes first, so lane k lands in bit k of a column.
    fmt = f"0{width}b"
    rows = "".join([format(val, fmt) for val in reversed(values)])
    return [int(rows[width - 1 - i :: width], 2) for i in range(width)]


def unpack_lanes(words: Sequence[int], lanes: int) -> List[int]:
    """Inverse of :func:`pack_lanes`: recover each lane's integer value.

    Word bits at positions ``>= lanes`` are ignored.
    """
    if not words or lanes <= 0:
        return [0] * max(lanes, 0)
    mask = (1 << lanes) - 1
    fmt = f"0{lanes}b"
    rows = "".join([format(w & mask, fmt) for w in reversed(words)])
    return [int(rows[lanes - 1 - k :: lanes], 2) for k in range(lanes)]


def pack_slots(values: Sequence[int], width: int) -> int:
    """Bit-slice per-lane integers into one bus-slot word.

    With ``L = len(values)`` lanes, bit ``i·L + k`` of the result holds
    bit ``i`` of ``values[k]``: the :func:`pack_lanes` words laid end to
    end, bus bit 0 lowest.  This is the layout of a cell-sliced kernel's
    slot words, so a bus whose wires sit in consecutive slots of one bank
    is written with one shift and mask (:meth:`CompiledSimulator.poke_slots`).
    Same range check and message as :func:`pack_lanes`.
    """
    _check_fit(values, width)
    if not values or not width:
        return 0
    fmt = f"0{width}b"
    rows = "".join([format(val, fmt) for val in reversed(values)])
    # Column j of the rows is bus bit width-1-j of every lane, lane L-1 first.
    return int("".join([rows[j::width] for j in range(width)]), 2)


def unpack_slots(word: int, width: int, lanes: int) -> List[int]:
    """Inverse of :func:`pack_slots`: each of ``lanes`` lanes' bus value.

    Word bits at positions ``>= width·lanes`` are ignored.
    """
    if lanes <= 0:
        return []
    if not width:
        return [0] * lanes
    total = width * lanes
    bits = format(word & ((1 << total) - 1), f"0{total}b")
    return [int(bits[lanes - 1 - k :: lanes], 2) for k in range(lanes)]


def slots_below(a: int, b: int, width: int, lanes: int, live: int) -> int:
    """Lane mask of ``a < b``, compared lane by lane on bus-slot words.

    A bit-sliced magnitude comparator: slots are scanned from the most
    significant down, and a lane is decided at the first slot where its
    bits differ (``a`` below ``b`` there iff ``b``'s bit is 1).  The scan
    stops once every lane of the ``live`` mask is decided, which for
    unrelated values is a handful of slots; lanes outside ``live`` are
    never reported.
    """
    m = (1 << lanes) - 1
    open_ = live & m
    below = 0
    top = min(width, -(-max(a.bit_length(), b.bit_length()) // lanes))
    for i in range(top - 1, -1, -1):
        off = i * lanes
        bi = (b >> off) & m
        diff = (((a >> off) & m) ^ bi) & open_
        if diff:
            below |= diff & bi
            open_ ^= diff
            if not open_:
                break
    return below


# ----------------------------------------------------------------------
# Simulator facade
# ----------------------------------------------------------------------
class _SlotPlan(NamedTuple):
    """A bus's route between bus-slot words and a simulator's state.

    ``poke``/``peek`` hold ``(bank, bus offset, slot offset, width mask,
    keep mask or None)`` pieces (peek reads each wire's first home only);
    ``scalars`` holds ``(bus offset, wire)`` for lane words in ``values``.
    """

    bus: Sequence[Wire]
    poke: Tuple[Tuple[int, int, int, int, Optional[int]], ...]
    peek: Tuple[Tuple[int, int, int, int, Optional[int]], ...]
    scalars: Tuple[Tuple[int, int], ...]


class CompiledSimulator:
    """Drop-in :class:`~repro.hdl.simulator.Simulator` twin over compiled kernels.

    Parameters
    ----------
    circuit:
        Netlist to simulate (validated + levelized at compile time).
    lanes:
        Number of independent simulations packed into each wire value.
        ``poke``/``peek`` keep the single-simulation interface (pokes
        broadcast to all lanes; peeks read lane 0 by default);
        ``poke_lanes``/``peek_lanes`` address lanes individually.
        :meth:`rebind` changes it on the same compiled kernel.
    watch:
        Extra wires to keep peekable (see :func:`compile_kernel`).
    probes:
        Ordered wires the codegenned ``capture()`` tap returns as lane
        words — the flight-recorder hook (see :func:`compile_kernel`).
    """

    def __init__(
        self,
        circuit: Circuit,
        lanes: int = 1,
        watch: object = (),
        probes: Sequence[object] = (),
    ) -> None:
        self.circuit = circuit
        self.kernel = compile_kernel(circuit, watch=watch, probes=probes)
        self.probe_wires: Tuple[int, ...] = self.kernel.probes
        # Cell-sliced kernels keep some wires in slot words (bit
        # slot·lanes + k = lane k); _homes maps each to its (word, slot)s.
        self._homes = self.kernel.homes
        q_wires = {f.q for f in circuit.dffs}
        self._reg_banks = [
            i for i, wires in enumerate(self.kernel.banks) if wires[0] in q_wires
        ]
        self._hidden = self.kernel.hidden
        # poke_slots/peek_slots plans, per bus object (see _slot_plan).
        self._slot_plans: Dict[int, "_SlotPlan"] = {}
        self._bind(lanes)
        self.cycle = 0

    def _bind(self, lanes: int) -> None:
        """Bind a fresh value array and a ``lanes``-wide mask to the kernel.

        Hidden-register state lives in the factory's closures, so instances
        never share state even though they share the cached kernel.
        """
        if lanes < 1:
            raise SimulationError(f"lanes must be >= 1, got {lanes}")
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self.values: List[int] = [0] * self.circuit.num_wires
        self.values[_CONST1] = self.mask
        (
            self._settle_k,
            self._clock_k,
            self._step_k,
            self._load,
            self._flush,
            self.capture_raw,
            *slots,
        ) = self.kernel.factory(self.values, self.mask)
        self._banks, self._set_banks = slots or (None, None)
        # Lanes carrying live work this sweep (lane-fill accounting); the
        # batch driver (GateLevelMMMC.multiply_slots) narrows it while a
        # padded sweep is in flight.
        self.active_lanes = lanes

    def rebind(self, lanes: int) -> None:
        """Resize the lane word to ``lanes`` and reset, without recompiling.

        Re-calls the cached kernel's factory with the new mask and a fresh
        value array (the kernel derives every slot offset from the mask),
        drops the slot plans, which hold lane-count offsets, and applies
        the synchronous reset.  Costs one factory call, ~0.13-0.24 ms for
        the l=32-64 MMMC; the kernel cache key does not involve the lane
        count.  Any state of the old word, pokes included, is gone.
        """
        self._bind(lanes)
        self._slot_plans.clear()
        self.reset()

    # -- value access ---------------------------------------------------
    def _check_readable(self, index: int) -> None:
        if index not in self.kernel.readable:
            raise SimulationError(
                f"wire {self.circuit.wire_names[index]!r} is folded away by the "
                "compiled kernel (inlined gate or unobserved register); pass it "
                "in watch=[...] (or watch='all') to keep it peekable"
            )

    def _read(self, indices: Sequence[int], check: bool = True) -> List[int]:
        """Current lane words of readable wires, wherever they live."""
        homes, vals = self._homes, self.values
        banks = self._banks() if homes else ()
        m, k = self.mask, self.lanes
        out = []
        for index in indices:
            home = homes.get(index)
            if home is not None:
                bank, slot = home[0]
                out.append((banks[bank] >> (slot * k)) & m)
            else:
                if check:
                    self._check_readable(index)
                out.append(vals[index])
        return out

    def _write(self, words: Dict[int, int], xor: bool = False) -> None:
        """Store (or XOR in) lane words, routing slot and hidden wires."""
        vals, homes = self.values, self._homes
        slots = {w: x for w, x in words.items() if w in homes}
        hid = bool(self._hidden) and not self._hidden.isdisjoint(words)
        if hid:
            self._flush()
        for w, x in words.items():
            if w not in slots:
                vals[w] = vals[w] ^ x if xor else x
        if hid:
            self._load()
        if not slots:
            return
        # Each touched slot word is rebuilt in one pass: the new slots and
        # a keep-mask as binary strings (slot 0 last), parsed once.
        k = self.lanes
        fmt, zero, ones = f"0{k}b", "0" * k, "1" * k
        per_bank: Dict[int, Tuple[List[str], List[str]]] = {}
        for w, x in slots.items():
            for bank, slot in homes[w]:
                if bank not in per_bank:
                    n = len(self.kernel.banks[bank])
                    per_bank[bank] = ([zero] * n, [ones] * n)
                new, keep = per_bank[bank]
                new[slot], keep[slot] = format(x, fmt), zero
        banks = list(self._banks())
        for bank, (new, keep) in per_bank.items():
            ins = int("".join(reversed(new)), 2)
            if xor:
                banks[bank] ^= ins
            else:
                banks[bank] = (banks[bank] & int("".join(reversed(keep)), 2)) | ins
        self._set_banks(banks)

    def poke(self, wire_or_bus, value: int) -> None:
        """Drive an input with one value, broadcast to every lane."""
        m = self.mask
        if isinstance(wire_or_bus, Wire):
            if value not in (0, 1):
                raise SimulationError(f"single wire takes 0/1, got {value}")
            self._write({wire_or_bus.index: m if value else 0})
            return
        bus: Sequence[Wire] = wire_or_bus
        if value < 0 or value >> len(bus):
            raise SimulationError(f"value {value} does not fit bus of width {len(bus)}")
        self._write({w.index: m if (value >> i) & 1 else 0 for i, w in enumerate(bus)})

    def poke_lanes(self, wire_or_bus, lane_values: Sequence[int]) -> None:
        """Drive an input with one value per lane."""
        if len(lane_values) != self.lanes:
            raise SimulationError(
                f"expected {self.lanes} lane values, got {len(lane_values)}"
            )
        if isinstance(wire_or_bus, Wire):
            word = 0
            for k, v in enumerate(lane_values):
                if v not in (0, 1):
                    raise SimulationError(f"lane {k}: single wire takes 0/1, got {v}")
                if v:
                    word |= 1 << k
            self._write({wire_or_bus.index: word})
            return
        words = pack_lanes(lane_values, len(wire_or_bus))
        self._write({w.index: word for w, word in zip(wire_or_bus, words)})

    def _slot_plan(self, bus: Sequence[Wire]) -> "_SlotPlan":
        """How ``bus`` maps onto the slot words and the value array.

        Bus bits that sit in consecutive slots of one bank form one
        piece, moved with a shift and a mask; the rest are lane words in
        ``values``, so they must be readable (primary inputs, outputs or
        watched wires; a closure-cell register raises).  Built once per
        bus object (found by identity, at most 64 kept) and held on this
        simulator, so no plan outlives it.
        """
        plan = self._slot_plans.get(id(bus))
        if plan is not None and plan.bus is bus:
            return plan
        k = self.lanes
        full = [(1 << (len(wires) * k)) - 1 for wires in self.kernel.banks]
        runs: Dict[Tuple[int, int], List[int]] = {}
        first: Dict[Tuple[int, int], List[int]] = {}
        scalars: List[Tuple[int, int]] = []
        for i, w in enumerate(bus):
            home = self._homes.get(w.index)
            if home is None:
                scalars.append((i * k, w.index))
                continue
            for j, (bank, slot) in enumerate(home):
                runs.setdefault((bank, slot - i), []).append(i)
                if not j:
                    first.setdefault((bank, slot - i), []).append(i)

        def pieces(groups):
            out = []
            for (bank, delta), bits in groups.items():
                start = prev = bits[0]
                for i in bits[1:] + [None]:
                    if i is not None and i == prev + 1:
                        prev = i
                        continue
                    width = (1 << ((prev - start + 1) * k)) - 1
                    dst = (start + delta) * k
                    keep = full[bank] ^ (width << dst)
                    out.append((bank, start * k, dst, width, keep or None))
                    if i is not None:
                        start = prev = i
            return tuple(out)

        for _, w in scalars:
            self._check_readable(w)
        plan = _SlotPlan(bus, pieces(runs), pieces(first), tuple(scalars))
        if len(self._slot_plans) >= 64:
            self._slot_plans.clear()
        self._slot_plans[id(bus)] = plan
        return plan

    def poke_slots(self, bus: Sequence[Wire], word: int) -> None:
        """Drive a bus with a bus-slot word, as :func:`pack_slots` returns.

        Bit ``i·L + k`` of ``word`` is bus bit ``i`` of lane ``k``; bits at
        ``len(bus)·L`` and above are ignored.  Each bank piece of the bus
        is one shift and mask, each remaining wire one lane-word extract.
        """
        plan = self._slot_plan(bus)
        if plan.poke:
            banks = list(self._banks())
            for bank, src, dst, width, keep in plan.poke:
                part = ((word >> src) & width) << dst
                banks[bank] = part if keep is None else (banks[bank] & keep) | part
            self._set_banks(banks)
        vals, m = self.values, self.mask
        for off, w in plan.scalars:
            vals[w] = (word >> off) & m

    def peek_slots(self, bus: Sequence[Wire]) -> int:
        """Read a bus as one bus-slot word (the inverse of :meth:`poke_slots`)."""
        plan = self._slot_plan(bus)
        word = 0
        if plan.peek:
            banks = self._banks()
            for bank, src, dst, width, _ in plan.peek:
                word |= ((banks[bank] >> dst) & width) << src
        vals = self.values
        for off, w in plan.scalars:
            word |= vals[w] << off
        return word

    def peek(self, wire_or_bus, lane: int = 0) -> int:
        """Read one lane (default lane 0) of a wire or little-endian bus."""
        if not (0 <= lane < self.lanes):
            raise SimulationError(f"lane {lane} out of range [0, {self.lanes})")
        if isinstance(wire_or_bus, Wire):
            return (self._read([wire_or_bus.index])[0] >> lane) & 1
        acc = 0
        for i, word in enumerate(self._read([w.index for w in wire_or_bus])):
            acc |= ((word >> lane) & 1) << i
        return acc

    def peek_lanes(self, wire_or_bus) -> List[int]:
        """Read every lane of a wire or bus as a list of integers."""
        if isinstance(wire_or_bus, Wire):
            word = self._read([wire_or_bus.index])[0]
            return [(word >> k) & 1 for k in range(self.lanes)]
        return unpack_lanes(self._read([w.index for w in wire_or_bus]), self.lanes)

    def capture(self) -> Tuple[int, ...]:
        """The probed wires' current lane words, one per probe, in order."""
        return self.expand_capture(self.capture_raw())

    def expand_capture(self, raw: Sequence[int]) -> Tuple[int, ...]:
        """Flatten a ``capture_raw`` sample to one lane word per probe.

        The codegenned tap of a cell-sliced kernel returns its slot words
        whole (a tuple of references, no per-probe shift) so an armed
        flight recorder pays almost nothing per cycle; the per-probe
        extraction runs only when a window is decoded.
        """
        cmap = self.kernel.capture_map
        if cmap is None:
            return tuple(raw)
        m, k = self.mask, self.lanes
        return tuple(raw[i] if slot < 0 else (raw[i] >> slot * k) & m for i, slot in cmap)

    def state_vector(self) -> Tuple[int, ...]:
        """Every flip-flop's Q lane word, in ``circuit.dffs`` order.

        Reads hidden closure-cell registers and slot words alike, so two
        kernels of one netlist can be compared register for register.
        """
        if self._hidden:
            self._flush()
        return tuple(self._read([f.q for f in self.circuit.dffs], check=False))

    def flip(self, wire: Wire, lanes: Optional[Sequence[int]] = None) -> None:
        """Invert a wire's value (single-event-upset injection).

        ``lanes`` selects which packed simulations are hit (default: all
        of them).  Works on hidden registers too — their closure-cell
        state is flushed to the value array, XORed, and loaded back — and
        on slot-word registers, where every slot holding the register
        flips — so fault campaigns can target any DFF without a ``watch``
        set.
        """
        if lanes is None:
            xor = self.mask
        else:
            xor = 0
            for k in lanes:
                if not (0 <= k < self.lanes):
                    raise SimulationError(
                        f"lane {k} out of range [0, {self.lanes})"
                    )
                xor |= 1 << k
        self._write({wire.index: xor}, xor=True)

    # -- phases ---------------------------------------------------------
    def settle(self) -> None:
        """Propagate through the compiled combinational cloud (phase 1)."""
        self._settle_k()
        if OBS.enabled:
            OBS.count("hdl.gate_evals", self.kernel.num_gates)
            OBS.record("hdl.gates_per_cycle", self.kernel.num_gates)

    def clock(self) -> None:
        """Capture every DFF via the compiled clock kernel (phase 2)."""
        self._clock_k()
        self.cycle += 1
        if OBS.enabled:
            OBS.count("hdl.cycles")
            OBS.count("hdl.compiled_cycles")
            if self.lanes > 1 and OBS.occupancy is not None:
                OBS.occupancy.activity("hdl.lanes", self.active_lanes, self.lanes)

    def step(self) -> None:
        """One full clock cycle through the fused settle+capture kernel.

        Equivalent to ``settle(); clock()`` but register inputs never
        round-trip through the value array.  After ``step()`` the value
        array holds this cycle's settled combinational values (pre-edge)
        and the freshly captured observable register values — the same
        observable state the split phases leave behind.
        """
        self._step_k()
        self.cycle += 1
        if OBS.enabled:
            OBS.count("hdl.gate_evals", self.kernel.num_gates)
            OBS.record("hdl.gates_per_cycle", self.kernel.num_gates)
            OBS.count("hdl.cycles")
            OBS.count("hdl.compiled_cycles")
            if self.lanes > 1 and OBS.occupancy is not None:
                OBS.occupancy.activity("hdl.lanes", self.active_lanes, self.lanes)

    def reset(self) -> None:
        """Synchronous reset: load every DFF's reset value; rewind the clock."""
        m = self.mask
        for f in self.circuit.dffs:
            self.values[f.q] = m if f.reset_value else 0
        if self._hidden:
            self._load()
        if self._reg_banks:
            banks = list(self._banks())
            for i in self._reg_banks:
                banks[i] = _pack(self.values, self.lanes, self.kernel.banks[i])
            self._set_banks(banks)
        self.cycle = 0
        self.settle()

    def run(self, cycles: int) -> None:
        """Advance ``cycles`` full clock cycles."""
        for _ in range(cycles):
            self.step()
