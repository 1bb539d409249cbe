"""The complete Montgomery Modular Multiplication Circuit as a gate netlist.

This is Fig. 3 in full, at gate granularity: the four-state controller
(2 state flip-flops + next-state logic), the cycle counter with its two
comparators (count-end and token-start), the ``l+1``-bit X shift register,
the Y and N operand registers, the embedded systolic array core, the
result-capture token chain, the output RESULT register and the DONE flag.

Interface (exactly the paper's): X, Y, N data inputs, START strobe,
RESULT output, DONE output.  Drive START for one cycle while IDLE with the
operands applied; DONE rises ``3l+4`` cycles later (``3l+5`` for the
corrected array mode).

Reproduction notes (see DESIGN.md):

* the paper specifies a ``log2(l+2)``-bit counter incremented only in MUL2
  with count-end at "2(l+1)" — mutually inconsistent statements; we use a
  ``⌈log2(3l+5)⌉``-bit counter incremented every MUL cycle;
* the paper does not specify how the skewed result diagonal reaches the
  parallel T register; we use a traveling-token enable chain, the cheapest
  realization consistent with Fig. 3's single comparator + counter style.

The elaborated circuit is what the Virtex-E technology mapper consumes to
reproduce Table 2's slice counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import FaultDetected, ParameterError, SimulationError
from repro.hdl.compiled import pack_slots, unpack_slots
from repro.hdl.netlist import Circuit, Wire
from repro.hdl.probes import make_sampler, mmmc_probe_set
from repro.hdl.registers import _drive, counter, equality_comparator, mux2, register, shift_register_right
from repro.observability import OBS
from repro.observability.occupancy import schedule_busy_mask
from repro.systolic.array import ARRAY_MODES
from repro.systolic.array_netlist import ArrayCore, elaborate_array, make_simulator
from repro.systolic.mmmc import MMMCRun

__all__ = ["MMMCPorts", "build_mmmc", "GateLevelMMMC"]


@dataclass
class MMMCPorts:
    """Handles into the elaborated MMMC netlist."""

    circuit: Circuit
    l: int
    mode: str
    x_in: List[Wire]
    y_in: List[Wire]
    n_in: List[Wire]
    start: Wire
    result: List[Wire]
    done: Wire
    state: List[Wire]  # [s0, s1]
    counter: List[Wire]
    core: ArrayCore
    x_shift: List[Wire]  # the l+1-bit X shift register (fault-site access)


# State encoding: IDLE=00, MUL1=01, MUL2=10, OUT=11 (s1 s0).
_IDLE, _MUL1, _MUL2, _OUT = 0b00, 0b01, 0b10, 0b11


def build_mmmc(l: int, mode: str = "corrected", name: str = "mmmc") -> MMMCPorts:
    """Elaborate the complete MMMC for bit length ``l``."""
    if l < 2:
        raise ParameterError(f"MMMC needs l >= 2, got {l}")
    if mode not in ARRAY_MODES:
        raise ParameterError(f"mode must be one of {ARRAY_MODES}, got {mode!r}")
    c = Circuit(f"{name}_l{l}_{mode}")
    x_in = c.add_input("X", l + 1)
    y_in = c.add_input("Y", l + 1)
    n_in = c.add_input("N", l + 1)
    start = c.add_input("START")

    datapath_cycles = 3 * l + 4 if mode == "corrected" else 3 * l + 3

    # ------------------------------------------------------------------
    # Controller: 2 state FFs + next-state logic (Fig. 4 ASM).
    # ------------------------------------------------------------------
    s0_d = c.new_wire("ctl.s0d")
    s1_d = c.new_wire("ctl.s1d")
    s0 = c.dff(s0_d, name="ctl.s0")
    s1 = c.dff(s1_d, name="ctl.s1")
    ns0 = c.not_(s0, name="ctl.ns0")
    ns1 = c.not_(s1, name="ctl.ns1")
    in_idle = c.and_(ns1, ns0, name="ctl.idle")
    in_mul1 = c.and_(ns1, s0, name="ctl.mul1")
    in_mul2 = c.and_(s1, ns0, name="ctl.mul2")
    in_out = c.and_(s1, s0, name="ctl.out")
    load = c.and_(in_idle, start, name="ctl.load")
    in_mul = c.or_(in_mul1, in_mul2, name="ctl.mul")

    # Counter: counts MUL cycles 0..datapath_cycles-1; cleared on load.
    width = max((datapath_cycles).bit_length(), 1)
    ctr = counter(c, width, increment=in_mul, reset_to_zero=load, name="ctr")
    count_end = equality_comparator(c, ctr, datapath_cycles - 1, name="cmp.end")
    token_start = equality_comparator(c, ctr, 2 * l + 2, name="cmp.tok")

    # Next state:
    #   IDLE: START ? MUL1 : IDLE
    #   MUL1: count_end ? OUT : MUL2
    #   MUL2: count_end ? OUT : MUL1
    #   OUT : IDLE
    go_out = c.and_(in_mul, count_end, name="ctl.goOut")
    stay1 = c.and_(in_mul2, c.not_(count_end, name="ctl.nend"), name="ctl.back1")
    to_mul1 = c.or_(load, stay1, name="ctl.toMul1")
    to_mul2 = c.and_(in_mul1, c.not_(count_end, name="ctl.nend2"), name="ctl.toMul2")
    # s0' = to_mul1 | go_out ; s1' = to_mul2 | go_out
    _drive(c, s0_d, c.or_(to_mul1, go_out, name="ctl.s0n"))
    _drive(c, s1_d, c.or_(to_mul2, go_out, name="ctl.s1n"))

    # ------------------------------------------------------------------
    # Datapath registers (Fig. 3).
    # ------------------------------------------------------------------
    x_q = shift_register_right(c, x_in, load=load, shift=in_mul2, name="Xreg")
    y_q = register(c, y_in, name="Yreg", enable=load)
    n_q = register(c, n_in, name="Nreg", enable=load)

    core = elaborate_array(
        c,
        x_q[0],
        y_q,
        n_q,
        mode=mode,
        en_mul1=in_mul1,
        en_mul2=in_mul2,
        clear=load,
        name="arr",
    )

    # ------------------------------------------------------------------
    # Result capture: traveling-token enable chain along the diagonal.
    # ------------------------------------------------------------------
    token_len = l + 1 if mode == "corrected" else l
    tok_d = [c.new_wire(f"tok.d{k}") for k in range(token_len)]
    first = len(c.dffs)
    tok_q = [c.dff(tok_d[k], name=f"tok[{k}]") for k in range(token_len)]
    inj = c.and_(token_start, in_mul, name="tok.inj")
    for k in range(token_len):
        prev = tok_q[k - 1] if k else inj
        with c.instance("tok", k, dffs=(first + k,), prev=prev):
            _drive(c, tok_d[k], prev)

    result_q: List[Wire] = []
    for b in range(l + 1):
        if mode == "corrected":
            src, en = core.t_comb[b], tok_q[b]
        else:
            if b < l:
                src, en = core.t_comb[b], tok_q[b]
            else:
                # Paper mode: bit l comes from the leftmost cell's second
                # output, at the same cycle as bit l-1.
                src, en = core.t_next_comb, tok_q[l - 1]
        with c.instance("RES", b, d=src, en=en):
            result_q.append(c.dff(src, name=f"RES[{b}]", enable=en))

    done = c.buf(in_out, name="DONE")
    c.mark_output("RESULT", result_q)
    c.mark_output("DONE", done)
    c.validate()
    return MMMCPorts(
        circuit=c,
        l=l,
        mode=mode,
        x_in=x_in,
        y_in=y_in,
        n_in=n_in,
        start=start,
        result=result_q,
        done=done,
        state=[s0, s1],
        counter=ctr,
        core=core,
        x_shift=x_q,
    )


class GateLevelMMMC:
    """Gate-level twin of :class:`~repro.systolic.mmmc.MMMC`.

    Drives START/operands through the netlist simulator and waits for
    DONE, measuring the latency in clock cycles.  Used by the ``rtl`` and
    ``gate`` serving backends, the equivalence tests (gate MMMC ≡
    behavioral MMMC ≡ golden) and the waveform example.
    """

    def __init__(
        self,
        l: int,
        mode: str = "corrected",
        simulator: str = "interpreted",
        lanes: int = 1,
    ) -> None:
        self.ports = build_mmmc(l, mode=mode)
        core = self.ports.core
        # The cycle loop observes the overflow carry tap (combinational), the
        # controller state bits and the overflow C1 register; watching them
        # keeps them in the value array while every other register stays in
        # the compiled kernel's closure cells.
        s0, s1 = self.ports.state
        # Standard flight-recorder probe layout: every fault-injectable
        # register class plus controller/counter/DONE.  Compiling with the
        # probe list codegens the capture tap into the kernel (hidden
        # closure-cell registers stay hidden); it costs nothing until a
        # recorder is armed and the tap is actually called.
        self.probe_set = mmmc_probe_set(self.ports)
        self.sim = make_simulator(
            self.ports.circuit,
            simulator,
            lanes=lanes,
            watch=(core.overflow_carry, core.overflow_c1, s0, s1),
            probes=self.probe_set.wire_indices,
        )
        self._s0_i, self._s1_i = s0.index, s1.index
        self._c1_i = core.overflow_c1.index
        self._carry_i = core.overflow_carry.index
        self._done_i = self.ports.done.index
        self.simulator = simulator
        self.lanes = lanes
        self.l = l
        self.mode = mode
        self._top_cell = l + 1 if mode == "corrected" else l
        # One-shot scheduled fault: (cycle, wire, lane_or_None), consumed
        # by the next multiplication.  See schedule_fault().
        self._pending_fault = None
        self.sim.reset()

    def rebind(self, lanes: int) -> None:
        """Reset onto a ``lanes``-wide lane word of the same netlist and kernel.

        A new lane count goes through :meth:`CompiledSimulator.rebind
        <repro.hdl.compiled.CompiledSimulator.rebind>` (no elaboration,
        no recompile); an unchanged one only resets.  Either way the
        instance comes back reset, as a fresh one of that width would,
        and a scheduled fault is dropped.  The interpreted engine has one
        lane only.
        """
        if lanes == self.lanes:
            self.sim.reset()
        elif self.simulator != "compiled":
            raise ParameterError("lane-packed simulation requires simulator='compiled'")
        else:
            self.sim.rebind(lanes)
            self.lanes = lanes
        self._pending_fault = None

    # ------------------------------------------------------------------
    # Fault injection (single-event-upset campaigns, chaos middleware)
    # ------------------------------------------------------------------
    def fault_sites(self) -> dict:
        """Map register-class name -> list of DFF output wires.

        The classes mirror ``repro.analysis.fault.REGISTER_CLASSES`` so a
        :class:`~repro.analysis.fault.FaultSite` addresses the same
        architectural state in the behavioral RTL and in this netlist:
        ``t``/``c0``/``c1`` array state, the two pipelines, the RESULT
        register and the X shift register.  Every datapath DFF of the
        MMMC is reachable through exactly one of these lists.
        """
        core, p = self.ports.core, self.ports
        return {
            "t": list(core.t_regs),
            "c0": list(core.c0_regs),
            "c1": list(core.c1_regs),
            "x_pipe": list(core.x_pipe_regs),
            "m_pipe": list(core.m_pipe_regs),
            "result": list(p.result),
            "x_shift": list(p.x_shift),
        }

    def schedule_fault(self, site, lane: int = None) -> None:
        """Arm a one-shot bit flip for the next multiplication.

        ``site`` is a :class:`~repro.analysis.fault.FaultSite` (duck-typed:
        ``cycle``/``register``/``index``).  The flip is applied to the
        register's Q immediately after clock edge number ``site.cycle``
        (0-based, counted from the first post-load cycle), modeling a
        particle strike on the stored bit; the corrupted value propagates
        on the following settle.  ``lane`` restricts the flip to one
        packed lane (compiled engine); ``None`` hits all lanes.
        """
        sites = self.fault_sites()
        regs = sites.get(site.register)
        if regs is None:
            raise ParameterError(
                f"unknown register class {site.register!r}; one of {sorted(sites)}"
            )
        if not 0 <= site.index < len(regs):
            raise ParameterError(
                f"register index {site.index} out of range for "
                f"{site.register!r} (width {len(regs)})"
            )
        if site.cycle < 0:
            raise ParameterError(f"fault cycle must be >= 0, got {site.cycle}")
        if lane is not None and not (0 <= lane < self.lanes):
            raise ParameterError(f"lane {lane} out of range [0, {self.lanes})")
        self._pending_fault = (site.cycle, regs[site.index], lane)

    def _take_pending_fault(self):
        pending, self._pending_fault = self._pending_fault, None
        return pending

    def _arm_recorder(self, lane_hint: int = 0):
        """(hub, recorder, sampler) when a flight recorder is armed, else Nones.

        One ``OBS.flightrec`` load + truth test per multiplication when
        disarmed — the recorder's entire disarmed cost.  The sampler is the
        engine-appropriate tap: peek-based on the interpreted simulator,
        the codegenned ``capture_raw`` closure on the compiled one, with the
        matching decoder handed to the recorder.
        """
        hub = OBS.flightrec
        if hub is None or not hub.armed:
            return None, None, None
        sampler, decode = make_sampler(self.sim, self.probe_set)
        rec = hub.new_recorder(
            self.probe_set.names,
            self.probe_set.widths,
            decode,
            lane=lane_hint,
            meta={"l": self.l, "mode": self.mode, "engine": self.simulator},
        )
        if rec is None:
            return None, None, None
        return hub, rec, sampler

    def _emit(self, hub, rec, operands, used: int, cycles: int) -> None:
        """Hand a sweep's recorder to the hub (which dumps it if triggered).

        A dump carries the sweep's operands so it is differentially
        re-runnable: replaying lane k cleanly is ``multiply(xs[k], ys[k],
        ns[k])`` on a scalar instance.  They are unpacked from the
        bus-slot words only for a dump.
        """
        laned = self.lanes > 1
        if rec.triggered:
            width = self.l + 1
            xs, ys, ns = (unpack_slots(w, width, self.lanes)[:used] for w in operands)
            if laned:
                rec.meta.update(xs=xs, ys=ys, ns=ns)
            else:
                rec.meta.update(x=xs[0], y=ys[0], n=ns[0])
        hub.emit(rec, cycles=cycles, lanes=used if laned else None)  # emit() drops None

    def _fault_cause(self, wire: Wire, lane) -> str:
        name = self.ports.circuit.wire_names[wire.index]
        where = "" if lane is None else f" lane {lane}"
        return f"bit-flip on {name}{where}"

    def _apply_fault(self, wire, lane) -> None:
        self.sim.flip(wire, lanes=None if lane is None else [lane])
        if OBS.enabled:
            OBS.count("mmmc.faults_injected")

    def _diverged(self, hub, rec, operands, used: int, cycles: int, done: int) -> None:
        """Raise ``lane-divergence`` for a DONE word that is not all lanes."""
        full = (1 << self.lanes) - 1
        odd = done if 2 * bin(done).count("1") < self.lanes else full ^ done
        lanes = [k for k in range(self.lanes) if (odd >> k) & 1]
        message = (
            f"lanes {lanes}: control diverged from the other lanes — DONE word "
            f"{done:#x} of {full:#x} at cycle {cycles}"
        )
        if rec is not None:
            rec.notify_fault(cycles, message, lane=lanes[0])
            self._emit(hub, rec, operands, used, cycles)
        self.sim.reset()  # leave the instance reusable after the raise
        raise FaultDetected(message, check="lane-divergence")

    def validate(self, x: int, y: int, n: int) -> None:
        """Raise unless ``n`` is an odd ``l``-bit modulus and ``x, y`` lie in ``[0, 2N)``."""
        if n.bit_length() > self.l or n % 2 == 0 or n < 3:
            raise ParameterError(f"bad modulus {n} for l={self.l}")
        for nm, v in (("x", x), ("y", y)):
            if not 0 <= v < 2 * n:
                raise ParameterError(f"{nm}={v} outside [0, 2N) for N={n}")

    def _sample_occupancy(self, mul_cycle: int) -> None:
        """Record array occupancy for one executed MUL cycle.

        The MUL-cycle stream is *measured* from the gate-level controller
        state bits; each cycle expands to its productive-cell mask via the
        ``2i+j`` schedule the datapath enables implement.
        """
        occ = OBS.occupancy
        if occ is None:
            return
        busy = occ.sample(
            "gate",
            mul_cycle,
            schedule_busy_mask(mul_cycle, self.l, self._top_cell),
            self._top_cell + 1,
        )
        OBS.counter_event("occupancy.gate", busy, cat="mmmc")

    def multiply(self, x: int, y: int, n: int) -> MMMCRun:
        """Run one multiplication (lane 0 of :meth:`multiply_lanes`)."""
        return self.multiply_lanes([x], [y], [n])[0]

    def multiply_lanes(self, xs, ys, ns) -> List[MMMCRun]:
        """Run up to ``lanes`` multiplications in one bit-sliced sweep.

        Validates every lane's operands, packs them into bus-slot words
        (:func:`~repro.hdl.compiled.pack_slots`), runs
        :meth:`multiply_slots` and unpacks the products.  Short batches
        are padded by replicating the last operand set (the padding
        lanes' results are discarded).
        """
        if not (0 < len(xs) <= self.lanes) or not (len(xs) == len(ys) == len(ns)):
            raise ParameterError(
                f"batch of {len(xs)}/{len(ys)}/{len(ns)} operands does not fit "
                f"{self.lanes} lanes"
            )
        for x, y, n in zip(xs, ys, ns):
            self.validate(x, y, n)
        used = len(xs)
        width = self.l + 1

        def padded(values) -> int:
            return pack_slots(list(values) + [values[-1]] * (self.lanes - used), width)

        x = padded(xs)
        # A squaring drives one packing onto X and Y.
        y = x if list(ys) == list(xs) else padded(ys)
        t, cycles = self.multiply_slots(x, y, padded(ns), used)
        return [
            MMMCRun(result=r, cycles=cycles, state_sequence=[])
            for r in unpack_slots(t, width, self.lanes)[:used]
        ]

    def multiply_slots(self, x: int, y: int, n: int, used: int) -> Tuple[int, int]:
        """The one cycle loop of the netlist twin: ``(RESULT, cycles)``.

        ``x``, ``y`` and ``n`` are bus-slot words of the ``l+1``-bit X, Y
        and N buses over this instance's lane count (bit ``i·L + k`` =
        bit ``i`` of lane ``k``); lanes ``used`` and above are padding.
        Operands are not validated here: :meth:`multiply_lanes` validates
        each lane, and an exponentiation chain validates its entry operands
        and then feeds back products that passed Walter's ``T < 2N`` check.
        The product comes back as the RESULT bus's slot word.

        Runs on either simulator (a one-lane instance is the scalar
        multiplier).  The controller is data-independent, so every lane
        shares the same START/MUL/DONE schedule; each wire carries the K
        lanes as bits of one int and the compiled kernels evaluate them
        simultaneously.  Cycles are counted from the first MUL cycle to
        DONE.  When any lane's DONE rises, every lane's must: a lane whose
        controller or counter left the common schedule would be read at
        the wrong cycle, so a partial DONE word raises
        :class:`~repro.errors.FaultDetected` (``check="lane-divergence"``)
        naming the lanes that disagree with the majority.  Lane metrics
        (``hdl.lane_fill`` and friends) are recorded on multi-lane
        instances only.  Every exit, raising or not, closes
        the ``mmm`` span and restores ``sim.active_lanes``.
        """
        p, sim, core = self.ports, self.sim, self.ports.core
        laned = self.lanes > 1
        observed = OBS.enabled
        if observed:
            # One span covers the whole sweep: K multiplications advance in
            # lock-step, so the trace shows one "mmm" segment with a lanes=
            # attribute rather than K overlapping copies.  A one-lane span
            # has the behavioral MMMC's shape, so traces captured through
            # either engine nest identically under the exponentiator.
            span = {"lanes": used} if laned else {}
            if laned:
                OBS.count("hdl.lanes_packed", used)
                OBS.record("hdl.lane_fill", used, lanes=self.lanes)
                OBS.counter_event("occupancy.lanes", used, cat="mmmc")
            OBS.begin(
                "mmm",
                cat="mmmc",
                l=self.l,
                mode=self.mode,
                engine=self.simulator,
                **span,
            )
        try:
            sim.poke_slots(p.x_in, x)
            sim.poke_slots(p.y_in, y)
            sim.poke_slots(p.n_in, n)
            sim.active_lanes = used  # lane-fill accounting in the compiled engine
            sim.poke(p.start, 1)  # broadcast: every lane starts together
            sim.step()  # the IDLE/load cycle (not charged, as in the behavioral MMMC)
            sim.poke(p.start, 0)
            cycles = 0
            mul_cycles = 0
            limit = 4 * self.l + 16
            vals = sim.values
            s0_i, s1_i, c1_i = self._s0_i, self._s1_i, self._c1_i
            carry_i, done_i = self._carry_i, self._done_i
            full = (1 << self.lanes) - 1
            pending = self._take_pending_fault()
            # Decode/extraction follows the faulting lane when a fault is armed.
            lane_hint = pending[2] if pending is not None and pending[2] is not None else 0
            hub, rec, sampler = self._arm_recorder(lane_hint)
            while cycles < limit:
                # Pre-edge register reads (state, overflow C1) happen before the
                # fused step; combinational taps (carry, DONE) are settled from
                # those same pre-edge values and stay valid after it.
                # MUL1=01 / MUL2=10 means s0 XOR s1.
                in_mul = (vals[s0_i] ^ vals[s1_i]) & 1
                c1_word = vals[c1_i] if in_mul else 0  # pre-edge C1 lanes
                sim.step()
                if pending is not None and cycles == pending[0]:
                    self._apply_fault(pending[1], pending[2])
                    if rec is not None:
                        rec.notify_fault(
                            cycles,
                            self._fault_cause(pending[1], pending[2]),
                            lane=pending[2],
                        )
                    pending = None
                if rec is not None and rec.wants_sample(cycles):
                    rec.sample(cycles, sampler())
                if c1_word and core.productive(mul_cycles):
                    over = vals[carry_i] & c1_word
                    bad = [k for k in range(used) if (over >> k) & 1] if over else None
                    if bad:
                        message = core.overflow_message(mul_cycles)
                        if laned:
                            message = f"lanes {bad}: " + message
                        if rec is not None:
                            rec.notify_fault(cycles, message, lane=bad[0])
                            self._emit(hub, rec, (x, y, n), used, cycles)
                        sim.reset()  # leave the instance reusable after the raise
                        raise SimulationError(message)
                done = vals[done_i]
                cycles += 1
                if in_mul:
                    if observed:
                        self._sample_occupancy(mul_cycles)
                    mul_cycles += 1
                if observed:
                    OBS.tick()
                if done:
                    if done != full:
                        self._diverged(hub, rec, (x, y, n), used, cycles, done)
                    break
            else:
                if rec is not None:
                    self._emit(hub, rec, (x, y, n), used, cycles)
                raise ParameterError(f"DONE did not rise within {limit} cycles")
            t = sim.peek_slots(p.result)
        except BaseException as exc:
            if observed:
                OBS.end(error=type(exc).__name__)
            raise
        finally:
            sim.active_lanes = self.lanes
        if rec is not None:
            self._emit(hub, rec, (x, y, n), used, cycles)
        if observed:
            OBS.count("mmmc.multiplications", used)
            if laned:
                OBS.count("hdl.wasted_lane_cycles", (self.lanes - used) * cycles)
            OBS.record("mmmc.multiplication_cycles", cycles)
            OBS.end(cycles=cycles)
        return t, cycles
