"""Cell-sliced codegen for netlists that record repeated cells.

:mod:`repro.hdl.compiled` hands a netlist with a cell record
(:attr:`Circuit.cells <repro.hdl.netlist.Circuit.cells>`) to
:func:`compile_sliced`, which emits one word operation per *template* gate
for each group of isomorphic instances instead of one per gate instance.
A slot word of an n-instance group holds bit ``j·L + k`` = instance ``j``,
lane ``k``; registers a group owns or reads through a port, and the
primary inputs it reads, live in such words ("banks"), so a neighbour
feed is a shift by ``L``.  Every other gate and register is emitted one
lane word per wire, exactly as :mod:`repro.hdl.compiled` emits a netlist
without groups, and reads slot bits through shift-and-mask extractions.
See "Cell-sliced kernels" in ``docs/SIMULATION.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.hdl.compiled import (
    _CONST0,
    _CONST1,
    _IND,
    _MAX_INLINE_CHARS,
    _MAX_INLINE_DEPTH,
    _capture_blocks,
    _dff_specs,
    _Expr,
    _gate_expr,
    _nonlocal_lines,
    _order_writes,
    _paren,
    _place_gate,
)
from repro.hdl.gates import GateKind
from repro.hdl.netlist import Circuit

__all__ = ["compile_sliced"]


def compile_sliced(circuit: Circuit, keep: FrozenSet[int], mat, hidden, probes):
    """``(source, bank wires, scalar hidden set, capture map)``, or None.

    ``keep`` holds the watched wires (they stay in the value array);
    ``mat``/``hidden`` are the per-gate kernel's materialized gate outputs
    and closure-cell registers.  A group that feeds itself combinationally
    is dropped and the rest retried; None when no group survives.
    """
    groups = _cell_groups(circuit, keep)
    while groups:
        banks = _plan_banks(circuit, groups, keep)
        scalar_hidden = hidden - {w for b in banks for w in b.wires}
        try:
            src, capture_map = _emit_sliced_factory(
                circuit, groups, banks, mat, scalar_hidden, probes
            )
        except _GroupCycle as exc:
            del groups[exc.group]
            continue
        return src, tuple(b.wires for b in banks), scalar_hidden, capture_map
    return None


class _Group(NamedTuple):
    """One validated group: ``gates[k][j]`` is template gate k of instance j."""

    n: int
    gates: Tuple[Tuple[int, ...], ...]
    kinds: Tuple[GateKind, ...]
    ins: Tuple[Tuple[Tuple[str, object], ...], ...]  # ("g", k) | ("p", port) | ("c", w)
    dffs: Tuple[Tuple[int, ...], ...]  # dffs[t][j]: template flip-flop t of instance j
    ports: Dict[str, Tuple[int, ...]]


class _Bank(NamedTuple):
    """A slot word of registers (``d`` etc. set) or of primary inputs."""

    tok: str
    wires: Tuple[int, ...]
    d: Optional[Tuple[int, ...]]
    en: Optional[Tuple[int, ...]]
    clr: Optional[Tuple[int, ...]]


def _cell_groups(circuit: Circuit, keep: FrozenSet[int]) -> List[_Group]:
    """Validate the recorded cell instances into templates.

    A group is kept only if every instance builds the same gate kinds and
    flip-flops, wired the same way: each gate input is another template
    gate of the same instance, a named port, or a constant.  Groups with a
    flip-flop in ``keep`` (watched registers must stay in the value array)
    or fewer than two instances compile per gate.
    """
    by_name: Dict[str, list] = {}
    for cell in circuit.cells:
        by_name.setdefault(cell.group, []).append(cell)
    gates, dffs = circuit.gates, circuit.dffs
    groups: List[_Group] = []
    for cells in by_name.values():
        cells = sorted(cells, key=lambda c: c.index)
        if len(cells) < 2 or [c.index for c in cells] != list(range(len(cells))):
            continue
        shape = None
        for cell in cells:
            local = {gates[gi].output: k for k, gi in enumerate(cell.gates)}
            by_wire: Dict[int, str] = {}
            for name, w in cell.ports:
                by_wire.setdefault(w, name)

            def ref(w):
                if w is None:  # flip-flop without enable / clear
                    return ("-",)
                if w in local:
                    return ("g", local[w])
                if w in by_wire:
                    return ("p", by_wire[w])
                if w in (_CONST0, _CONST1):
                    return ("c", w)
                return None  # reads a wire that is neither local nor a port

            sig = (
                tuple(name for name, _ in cell.ports),
                tuple(gates[gi].kind for gi in cell.gates),
                tuple(tuple(ref(w) for w in gates[gi].inputs) for gi in cell.gates),
                tuple(
                    (ref(dffs[f].d), ref(dffs[f].enable), ref(dffs[f].clear))
                    for f in cell.dffs
                ),
            )
            if shape is None:
                shape = sig
            if sig != shape or None in (r for refs in sig[2] + sig[3] for r in refs):
                break
        else:
            if any(dffs[f].q in keep for c in cells for f in c.dffs):
                continue
            ports = {name: tuple(dict(c.ports)[name] for c in cells) for name in shape[0]}
            groups.append(
                _Group(
                    n=len(cells),
                    gates=tuple(zip(*(c.gates for c in cells))),
                    kinds=shape[1],
                    ins=shape[2],
                    dffs=tuple(zip(*(c.dffs for c in cells))),
                    ports=ports,
                )
            )
    return groups


def _plan_banks(circuit: Circuit, groups: List[_Group], keep: FrozenSet[int]) -> List[_Bank]:
    """Choose the slot-word registers: owned flip-flops, then port vectors.

    Every template flip-flop of a group is one bank.  A port whose wires
    are all flip-flop Qs (repeats allowed: a two-cycle pipeline stage
    feeds two instances, so it sits in two slots) or all primary inputs
    becomes a bank too, unless a wire is already in a bank or watched;
    so do the primary inputs a register bank loads from.
    """
    q_of = {f.q: f for f in circuit.dffs}
    inputs = set(circuit.inputs.values())
    banks: List[_Bank] = []
    homed: set = set()

    def add(wires, reg):
        fs = [q_of[w] for w in wires] if reg else None
        banks.append(
            _Bank(
                tok=f"s{len(banks)}",
                wires=tuple(wires),
                d=tuple(f.d for f in fs) if reg else None,
                en=tuple(_CONST1 if f.enable is None else f.enable for f in fs) if reg else None,
                clr=tuple(_CONST0 if f.clear is None else f.clear for f in fs) if reg else None,
            )
        )
        homed.update(wires)

    for g in groups:
        for row in g.dffs:
            add([circuit.dffs[f].q for f in row], True)
    for g in groups:
        for wires in g.ports.values():
            if len(set(wires)) == 1 or homed.intersection(wires) or keep.intersection(wires):
                continue
            if all(w in q_of for w in wires):
                add(wires, True)
            elif all(w in inputs for w in wires):
                add(wires, False)
    # A bank loaded straight from primary inputs (the Y and N operand
    # registers) reads them from an input bank: one word per load.
    for b in list(banks):
        d = b.d or ()
        if (
            len(set(d)) == len(d) > 1
            and all(w in inputs for w in d)
            and not homed.intersection(d)
            and not keep.intersection(d)
        ):
            add(d, False)
    return banks


class _SliceGen:
    """Emit the step/settle bodies of a cell-sliced kernel."""

    def __init__(self, circuit, groups, banks, mat, hidden) -> None:
        self.c = circuit
        self.groups = groups
        self.banks = banks
        self.mat = mat
        self.hidden = hidden
        gates = circuit.gates
        # Slot vectors: template gate outputs and banks, by token.
        self.vwires: Dict[str, Tuple[int, ...]] = {}
        self.gate_node: Dict[int, Tuple[int, int]] = {}
        for gi, g in enumerate(groups):
            for k, row in enumerate(g.gates):
                self.vwires[f"g{gi}_{k}"] = tuple(gates[x].output for x in row)
                for x in row:
                    self.gate_node[x] = (gi, k)
        for b in banks:
            self.vwires[b.tok] = b.wires
        self.homes: Dict[int, List[Tuple[str, int]]] = {}
        self.by_wires: Dict[Tuple[int, ...], str] = {}
        for tok, wires in self.vwires.items():
            self.by_wires.setdefault(wires, tok)
            for pos, w in enumerate(wires):
                self.homes.setdefault(w, []).append((tok, pos))
        self.producer = {g.output: gi for gi, g in enumerate(gates)}
        self.consts: Dict[str, str] = {}
        self.posmasks: Dict[Tuple[int, ...], str] = {}
        self.vtext: Dict[str, _Expr] = {}  # template gate vector -> expression

    # -- constants ------------------------------------------------------
    def const(self, name: str, value_src: str) -> str:
        self.consts.setdefault(name, value_src)
        return name

    def full(self, n: int) -> str:
        return self.const(f"F{n}", f"(1 << {n} * L) - 1")

    def rep(self, n: int) -> str:
        return self.const(f"R{n}", f"{self.full(n)} // m")

    def off(self, p: int) -> str:
        return self.const(f"o{p}", f"{p} * L")

    def posmask(self, positions: Tuple[int, ...]) -> str:
        name = self.posmasks.get(positions)
        if name is None:
            name = self.posmasks[positions] = f"P{len(self.posmasks)}"
            self.consts[name] = f"__posmask(m, L, {positions!r})"
        return name

    def extract(self, tok: str, pos: int) -> str:
        n = len(self.vwires[tok])
        if pos == 0:
            return f"{tok} & m" if n > 1 else tok
        shifted = f"{tok} >> {self.off(pos)}"
        return shifted if pos == n - 1 else f"({shifted}) & m"

    # -- gathers ----------------------------------------------------------
    def resolve(self, w: int) -> int:
        """Follow scalar BUF chains (D placeholders) to the driving wire."""
        gates = self.c.gates
        while w not in self.homes:
            gi = self.producer.get(w)
            if gi is None or gi in self.gate_node or gates[gi].kind is not GateKind.BUF:
                break
            w = gates[gi].inputs[0]
        return w

    def plan_gather(self, wires: Tuple[int, ...]):
        """Cover a wanted wire vector with shifted slot vectors + scalars."""
        wires = tuple(self.resolve(w) for w in wires)
        if len(set(wires)) == 1:
            return ("uniform", wires[0])
        if wires in self.by_wires:
            return ("vec", self.by_wires[wires])
        n = len(wires)
        ones = tuple(i for i, w in enumerate(wires) if w == _CONST1)
        left = {i for i, w in enumerate(wires) if w not in (_CONST0, _CONST1)}
        cand: Dict[Tuple[str, int], set] = {}
        for i in sorted(left):
            for tok, j in self.homes.get(wires[i], ()):
                cand.setdefault((tok, j - i), set()).add(i)
        pieces = []
        while left and cand:
            key = max(cand, key=lambda kk: len(cand[kk] & left))
            cov = cand.pop(key) & left
            if not cov:
                break
            tok, sft = key
            # Slots the shifted source lands on (right shifts drop bits).
            reach = set(range(max(-sft, 0), len(self.vwires[tok]) - sft))
            exact = reach == cov and max(reach) < n
            pieces.append((tok, sft, None if exact else tuple(sorted(cov))))
            left -= cov
        return ("mix", pieces, tuple((i, wires[i]) for i in sorted(left)), ones)

    @staticmethod
    def gather_wires(spec) -> List[int]:
        """Scalar wires a gather reads, once per textual use (for fanout
        counting: a replicated strobe is read twice, so it gets a local)."""
        if spec[0] == "uniform":
            return [] if spec[1] in (_CONST0, _CONST1) else [spec[1], spec[1]]
        if spec[0] == "vec":
            return []
        return [w for _, w in spec[2]]

    @staticmethod
    def gather_vecs(spec) -> List[str]:
        if spec[0] == "vec":
            return [spec[1]]
        if spec[0] == "mix":
            return [tok for tok, _, _ in spec[1]]
        return []

    def gather_text(self, spec, n: int, sref) -> _Expr:
        if spec[0] == "uniform":
            w = spec[1]
            if w == _CONST0:
                return _Expr("0", 0, True)
            if w == _CONST1:
                return _Expr(self.full(n), 0, True)
            e = sref(w, True)
            return _Expr(
                f"{self.full(n)} if {e.text} == m else {e.text} * {self.rep(n)}", 1, False
            )
        if spec[0] == "vec":  # a template gate vector may be inlined
            return self.vtext.get(spec[1]) or _Expr(spec[1], 0, True)
        _, pieces, scalars, ones = spec
        parts = []
        for tok, sft, keep in pieces:
            t = tok
            if sft > 0:
                t = f"{tok} >> {self.off(sft)}"
            elif sft < 0:
                t = f"{tok} << {self.off(-sft)}"
            if keep is not None:
                t = f"({t}) & {self.posmask(keep)}" if sft else f"{t} & {self.posmask(keep)}"
            parts.append(t)
        for i, w in scalars:
            e = sref(w, False)
            parts.append(f"{_paren(e)} << {self.off(i)}" if i else e.text)
        if ones:
            parts.append(self.posmask(ones))
        if len(parts) == 1:
            return _Expr(parts[0], 1, parts[0].isidentifier())
        return _Expr(" | ".join(f"({p})" for p in parts), 2, False)

    # -- emission ---------------------------------------------------------
    def emit(self, probes: Tuple[int, ...]):
        """Return (settle lines, step lines, written tokens, capture tokens,
        capture map)."""
        c, gates, groups = self.c, self.c.gates, self.groups
        homed_q = {w for b in self.banks if b.d is not None for w in b.wires}
        scalar_gates = [gi for gi in range(len(gates)) if gi not in self.gate_node]
        specs = _dff_specs([f for f in c.dffs if f.q not in homed_q])

        port_uses: Dict[Tuple[int, str], int] = {}
        for gi, g in enumerate(groups):
            for ins in g.ins:
                for r in ins:
                    if r[0] == "p":
                        port_uses[(gi, r[1])] = port_uses.get((gi, r[1]), 0) + 1
        port_spec = {key: self.plan_gather(groups[key[0]].ports[key[1]]) for key in port_uses}
        bank_spec = [
            None if b.d is None else tuple(self.plan_gather(x) for x in (b.d, b.en, b.clr))
            for b in self.banks
        ]
        all_specs = list(port_spec.values()) + [s for bs in bank_spec if bs for s in bs]

        fan: Dict[int, int] = {}
        for gi in scalar_gates:
            for w in gates[gi].inputs:
                fan[w] = fan.get(w, 0) + 1
        for _, d, en, clr in specs:
            for w, times in ((d, 1), (en, 2), (clr, 2)):
                if w is not None and w not in (_CONST0, _CONST1):
                    fan[w] = fan.get(w, 0) + times
        vuse: Dict[str, int] = {}
        for spec in all_specs:
            for w in self.gather_wires(spec):
                fan[w] = fan.get(w, 0) + 1
            for tok in self.gather_vecs(spec):
                # A shifted piece reads a named vector; an exact match may
                # inline (e.g. into its register's enable-guarded capture).
                vuse[tok] = vuse.get(tok, 0) + (1 if spec[0] == "vec" else 2)
        for gi, g in enumerate(groups):
            for ins in g.ins:
                for r in ins:
                    if r[0] == "g":
                        tok = f"g{gi}_{r[1]}"
                        vuse[tok] = vuse.get(tok, 0) + 1

        order = self.topo(scalar_gates, port_spec)

        lines: List[str] = []
        expr: Dict[int, _Expr] = {_CONST0: _Expr("0", 0, True), _CONST1: _Expr("m", 0, True)}

        def sref(w: int, atomic: bool) -> _Expr:
            e = expr.get(w)
            if e is None:
                e = _Expr(f"q{w}" if w in self.hidden else f"v[{w}]", 0, True)
            if atomic and not e.atomic:
                lines.append(f"{_IND}w{w} = {e.text}")
                e = expr[w] = _Expr(f"w{w}", 0, True)
            return e

        def bind(w: int, e: _Expr) -> None:
            """Give a slot-resident wire its scalar (extracted) expression."""
            uses, mat = fan.get(w, 0), w in self.mat
            if mat and uses:
                lines.append(f"{_IND}w{w} = {e.text}")
                lines.append(f"{_IND}v[{w}] = w{w}")
                expr[w] = _Expr(f"w{w}", 0, True)
            elif mat:
                lines.append(f"{_IND}v[{w}] = {e.text}")
                expr[w] = _Expr(f"v[{w}]", 0, True)
            elif uses > 1 and not e.atomic:
                lines.append(f"{_IND}w{w} = {e.text}")
                expr[w] = _Expr(f"w{w}", 0, True)
            else:
                expr[w] = e

        bank_home: Dict[int, Tuple[str, int]] = {}
        for b in self.banks:
            for pos, w in enumerate(b.wires):
                bank_home.setdefault(w, (b.tok, pos))
        for w, (tok, pos) in bank_home.items():
            if fan.get(w, 0):
                text = self.extract(tok, pos)
                bind(w, _Expr(text, 1, text.isidentifier()))

        vexpr = self.vtext
        pexpr: Dict[Tuple[int, str], _Expr] = {}

        def port_expr(gi: int, name: str) -> _Expr:
            e = pexpr.get((gi, name))
            if e is None:
                e = self.gather_text(port_spec[(gi, name)], groups[gi].n, sref)
                if port_uses[(gi, name)] > 1 and not e.atomic:
                    lines.append(f"{_IND}p{gi}_{name} = {e.text}")
                    e = _Expr(f"p{gi}_{name}", 0, True)
                pexpr[(gi, name)] = e
            return e

        for node in order:
            if node[0] == "s":
                g = gates[node[1]]
                a = sref(g.inputs[0], False)
                b = sref(g.inputs[1], False) if len(g.inputs) > 1 else None
                out = g.output
                _place_gate(
                    out, _gate_expr(g.kind, a, b), out in self.mat, fan.get(out, 0), lines, expr
                )
                continue
            _, gi, k = node
            grp = groups[gi]
            one = self.full(grp.n)
            args = []
            for r in grp.ins[k]:
                if r[0] == "g":
                    args.append(vexpr[f"g{gi}_{r[1]}"])
                elif r[0] == "c":
                    args.append(_Expr("0" if r[1] == _CONST0 else one, 0, True))
                else:
                    args.append(port_expr(gi, r[1]))
            e = _gate_expr(grp.kinds[k], args[0], args[1] if len(args) > 1 else None, one)
            tok = f"g{gi}_{k}"
            wires = self.vwires[tok]
            need = [(pos, w) for pos, w in enumerate(wires) if fan.get(w, 0) or w in self.mat]
            if e.text in ("0", one):
                if vuse.get(tok, 0) > 1:
                    lines.append(f"{_IND}{tok} = {e.text}")
                vexpr[tok] = e
                for _, w in need:
                    bind(w, _Expr("0" if e.text == "0" else "m", 0, True))
                continue
            if (
                not need
                and vuse.get(tok, 0) <= 1
                and e.depth < _MAX_INLINE_DEPTH
                and len(e.text) < _MAX_INLINE_CHARS
            ):
                vexpr[tok] = e
                continue
            lines.append(f"{_IND}{tok} = {e.text}")
            vexpr[tok] = _Expr(tok, 0, True)
            for pos, w in need:
                bind(w, _Expr(self.extract(tok, pos), 1, False))

        settle = list(lines)

        def ref(w: int) -> _Expr:
            return sref(w, False)

        def qtok(w: int) -> str:
            return f"q{w}" if w in self.hidden else f"v[{w}]"

        blocks = _capture_blocks(specs, ref, qtok)
        for b, bs in zip(self.banks, bank_spec):
            if bs is not None:
                blocks.append((b.tok, self.bank_block(b, bs, sref)))
        pre, out = _order_writes(blocks)
        step = lines + pre + out
        written = sorted({qtok(q) for q, _, _, _ in specs if q in self.hidden})
        written += [b.tok for b in self.banks if b.d is not None]

        # The capture tap returns each probed slot word whole, then the
        # scalar probes; capture_map says where each probe sits: (entry,
        # slot) for a slot wire, (entry, -1) for a lane word.  Extraction
        # waits for decode.
        entry: Dict[str, int] = {}
        for w in probes:
            if w in bank_home:
                entry.setdefault(bank_home[w][0], len(entry))
        toks = list(entry)
        capture_map = []
        for w in probes:
            if w in bank_home:
                tok, slot = bank_home[w]
                capture_map.append((entry[tok], slot))
            else:
                capture_map.append((len(toks), -1))
                toks.append(qtok(w))
        return settle, step, written, toks, tuple(capture_map)

    def bank_block(self, b: _Bank, bs, sref) -> List[str]:
        """Capture lines of one slot-word register (clear dominates enable).

        A strobe that is one wire for every slot is a lane word; it is
        replicated across the slots only when it fires (all-lanes is the
        common case: the full mask, no multiply).  A strobe that differs
        per slot is itself gathered into a slot word.
        """
        n = len(b.wires)
        F, R, s = self.full(n), self.rep(n), b.tok
        dspec, espec, cspec = bs
        lines: List[str] = []

        def strobe(spec, prefix, idle):
            # None: tied to its idle constant; "tied": tied to the other one.
            if spec[0] == "uniform" and spec[1] in (_CONST0, _CONST1):
                return None if spec[1] == idle else "tied"
            if spec[0] == "uniform":
                t = sref(spec[1], True).text
                return (t, f"({F} if {t} == m else {t} * {R})", f"{t} * {R}")
            lines.append(f"{_IND}{prefix}{s} = {self.gather_text(spec, n, sref).text}")
            t = f"{prefix}{s}"
            return (t, t, t)

        en = strobe(espec, "e", _CONST1)  # None: always enabled
        clr = strobe(cspec, "c", _CONST0)  # None: never cleared
        if clr == "tied":
            return lines + [f"{_IND}{s} = 0"]
        if en == "tied":  # enable tied low: the register only clears
            en = "never"
        d = _paren(self.gather_text(dspec, n, sref)) if en != "never" else None
        if en is None:
            held, upd = d, d
        elif en != "never":
            held = f"{s} ^ (({s} ^ {d}) & {en[1]})"
            upd = held if en[0] == en[1] else f"{d} if {en[0]} == m else {s} ^ (({s} ^ {d}) & {en[2]})"
        if clr is None:
            if en is None:
                lines.append(f"{_IND}{s} = {d}")
            elif en != "never":
                lines.append(f"{_IND}if {en[0]}:")
                lines.append(f"{_IND}    {s} = {upd}")
            return lines
        base = s if en == "never" else f"({held})"
        if clr[0] == clr[1]:
            cleared = f"{base} & ({F} ^ {clr[0]})"
        else:
            cleared = f"0 if {clr[0]} == m else {base} & ({F} ^ {clr[2]})"
        lines.append(f"{_IND}if {clr[0]}:")
        lines.append(f"{_IND}    {s} = {cleared}")
        if en is None:
            lines.append(f"{_IND}else:")
            lines.append(f"{_IND}    {s} = {d}")
        elif en != "never":
            lines.append(f"{_IND}elif {en[0]}:")
            lines.append(f"{_IND}    {s} = {upd}")
        return lines

    def topo(self, scalar_gates: List[int], port_spec) -> List[tuple]:
        """Order scalar gates and template-gate nodes; a group cycle raises."""
        gates, groups = self.c.gates, self.groups

        def node_of(w: int):
            gi = self.producer.get(w)
            if gi is None:
                return None
            vk = self.gate_node.get(gi)
            return ("v",) + vk if vk is not None else ("s", gi)

        def spec_deps(spec):
            deps = [node_of(w) for w in self.gather_wires(spec)]
            for tok in self.gather_vecs(spec):
                if tok[0] == "g":
                    gi, k = tok[1:].split("_")
                    deps.append(("v", int(gi), int(k)))
            return deps

        deps: Dict[tuple, set] = {}
        for gi in scalar_gates:
            deps[("s", gi)] = {node_of(w) for w in gates[gi].inputs} - {None}
        for gi, g in enumerate(groups):
            for k, ins in enumerate(g.ins):
                d = set()
                for r in ins:
                    if r[0] == "g":
                        d.add(("v", gi, r[1]))
                    elif r[0] == "p":
                        d.update(spec_deps(port_spec[(gi, r[1])]))
                deps[("v", gi, k)] = d - {None}
        users: Dict[tuple, List[tuple]] = {n: [] for n in deps}
        indeg = {n: len(d) for n, d in deps.items()}
        for n, d in deps.items():
            for p in d:
                users[p].append(n)
        ready = deque(n for n in deps if not indeg[n])
        order = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for u in users[n]:
                indeg[u] -= 1
                if not indeg[u]:
                    ready.append(u)
        if len(order) != len(deps):
            stuck = {n[1] for n in deps if indeg[n] and n[0] == "v"}
            raise _GroupCycle(min(stuck) if stuck else -1)
        return order


class _GroupCycle(Exception):
    """A group feeds itself combinationally; it must compile per gate."""

    def __init__(self, group: int) -> None:
        super().__init__(group)
        self.group = group


def _emit_sliced_factory(circuit, groups, banks, mat, hidden, probes):
    """Generate the factory of a cell-sliced kernel (see _emit_factory).

    Same closures as the per-gate factory plus ``banks``/``set_banks``,
    which read and replace the slot words; the simulator maps slot-resident
    wires onto their bits for poke/peek/flip.  ``settle`` evaluates the
    cloud without capturing; ``clock`` is the fused ``step`` itself (the
    slot words keep no split-phase copy of the register inputs).  ``capture`` returns
    a compact sample; returns ``(source, capture_map)``, the map expanding
    a compact sample to one lane word per probe.
    """
    gen = _SliceGen(circuit, groups, banks, mat, hidden)
    settle, step, written, toks, capture_map = gen.emit(probes)
    hid_sorted = sorted(hidden)
    lines: List[str] = ["def __kernel_factory(v, m):", "    L = m.bit_length()"]
    lines += [f"    {name} = {val}" for name, val in gen.consts.items()]
    lines += [f"    q{w} = v[{w}]" for w in hid_sorted]
    lines += [f"    {b.tok} = __pack(v, L, {b.wires!r})" for b in banks]
    lines.append("    def __load():")
    if hid_sorted:
        lines += _nonlocal_lines([f"q{w}" for w in hid_sorted])
        lines += [f"{_IND}q{w} = v[{w}]" for w in hid_sorted]
    else:
        lines.append(f"{_IND}pass")
    lines.append("    def __flush():")
    lines += [f"{_IND}v[{w}] = q{w}" for w in hid_sorted] or [f"{_IND}pass"]
    lines.append("    def __settle():")
    lines += settle or [f"{_IND}pass"]
    lines.append("    def __step():")
    lines += _nonlocal_lines(written)
    lines += step or [f"{_IND}pass"]
    lines.append("    def __capture():")
    lines.append(f"{_IND}return ({', '.join(toks)},)" if toks else f"{_IND}return ()")
    toks_b = [b.tok for b in banks]
    lines.append("    def __banks():")
    lines.append(f"{_IND}return ({', '.join(toks_b)},)")
    lines.append("    def __set_banks(words):")
    lines += _nonlocal_lines(toks_b)
    lines.append(f"{_IND}{', '.join(toks_b)}, = words")
    lines.append(
        "    return __settle, __step, __step, __load, __flush, __capture, "
        "__banks, __set_banks"
    )
    return "\n".join(lines) + "\n", capture_map
