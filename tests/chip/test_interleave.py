"""Differential suite: W-way interleaved runs are bit-identical to
sequential single-array runs, cycle-for-cycle pinned to the issue model.
"""

from __future__ import annotations

import random

import pytest

from repro.chip.interleave import InterleavedArray, MMMOp, _Flight
from repro.chip.schedule import (
    datapath_cycles,
    interleaved_idle_model,
    issue_schedule,
)
from repro.errors import ParameterError, SimulationError
from repro.observability import OccupancyRecorder, observe
from repro.systolic.array import SystolicArrayRTL
from repro.utils.rng import random_odd_modulus


def _ops(l: int, count: int, seed: int = 0):
    rng = random.Random(seed)
    n = random_odd_modulus(l, rng)
    return [
        MMMOp(rng.randrange(n), rng.randrange(n), n, tag=i) for i in range(count)
    ], n


def _sequential_reference(ops, l):
    arr = SystolicArrayRTL(l, mode="corrected")
    return {
        op.tag: arr.run_multiplication(op.x, op.y, op.n).value for op in ops
    }


class TestParameterScreen:
    def test_bad_waves_and_engine(self):
        with pytest.raises(ParameterError):
            InterleavedArray(8, waves=0)
        with pytest.raises(ParameterError):
            InterleavedArray(8, engine="verilog")


class TestRTLDifferential:
    @pytest.mark.parametrize("waves", [1, 2, 4])
    def test_bit_identical_to_sequential(self, waves):
        l, count = 8, 6
        ops, _ = _ops(l, count, seed=waves)
        expected = _sequential_reference(ops, l)
        outcomes = InterleavedArray(l, waves=waves).run(ops)
        assert len(outcomes) == count
        for o in outcomes:
            assert o.value == expected[o.op.tag], (
                f"wave-interleaved result diverged at W={waves}, tag={o.op.tag}"
            )

    @pytest.mark.parametrize("waves", [1, 2, 4])
    def test_issue_stream_matches_greedy_schedule(self, waves):
        l, count = 8, 6
        ops, _ = _ops(l, count)
        outcomes = InterleavedArray(l, waves=waves).run(ops)
        simulated = sorted(o.issue_cycle for o in outcomes)
        assert simulated == issue_schedule(count, l, waves=waves)

    def test_per_op_latency_is_datapath_plus_out(self):
        l = 8
        ops, _ = _ops(l, 3)
        outcomes = InterleavedArray(l, waves=2).run(ops)
        assert all(o.cycles == datapath_cycles(l) + 1 for o in outcomes)

    @pytest.mark.parametrize("waves", [1, 2, 4])
    def test_measured_idle_matches_model(self, waves):
        l, count = 8, 6
        ops, _ = _ops(l, count)
        occ = OccupancyRecorder()
        arr = InterleavedArray(l, waves=waves)
        with observe(occupancy=occ):
            arr.run(ops)
        idle = occ.idle_fraction("interleaved")
        assert idle == pytest.approx(
            interleaved_idle_model(count, l, waves=waves), abs=1e-4
        )

    def test_hazard_check_runs_clean_at_max_pressure(self):
        # Saturating all four slots never trips the pairwise-disjointness
        # assertion: the structural proof that the W-wave array is
        # buildable on one shared cell lattice.
        l = 8
        ops, _ = _ops(l, 10, seed=3)
        outcomes = InterleavedArray(l, waves=4).run(ops)  # no SimulationError
        assert len(outcomes) == 10


class TestGateDifferential:
    def test_bit_identical_to_gate_netlist(self):
        from repro.systolic.mmmc_netlist import GateLevelMMMC

        l, count = 8, 4
        ops, n = _ops(l, count, seed=7)
        gate = GateLevelMMMC(l, mode="corrected")
        expected = {op.tag: gate.multiply(op.x, op.y, op.n).result for op in ops}
        outcomes = InterleavedArray(l, waves=2, engine="netlist").run(ops)
        assert len(outcomes) == count
        for o in outcomes:
            assert o.value == expected[o.op.tag]

    def test_gate_and_rtl_engines_agree(self):
        l, count = 8, 4
        ops, _ = _ops(l, count, seed=11)
        rtl = {o.op.tag: o.value for o in InterleavedArray(l, waves=2).run(ops)}
        gat = {
            o.op.tag: o.value
            for o in InterleavedArray(l, waves=2, engine="netlist").run(ops)
        }
        assert rtl == gat

    def test_scheduled_mask_overlap_raises(self):
        # White box: two flights forced onto the same start cycle must trip
        # the netlist engine's scheduled-mask hazard check — the governor is
        # the only thing standing between the model and an unbuildable
        # machine, and the check proves it is load-bearing.
        arr = InterleavedArray(8, waves=2, engine="netlist")
        ops, _ = _ops(8, 2)
        arr._netlist_issue(_Flight(ops[0], 0, arr.datapath_cycles))
        with pytest.raises(SimulationError, match="wave hazard"):
            arr._netlist_issue(_Flight(ops[1], 0, arr.datapath_cycles))


class TestRunDriver:
    def test_run_timeout_raises(self):
        ops, _ = _ops(8, 2)
        with pytest.raises(SimulationError, match="exceeded"):
            InterleavedArray(8, waves=2).run(ops, max_cycles=3)

    def test_take_completed_drains_once(self):
        ops, _ = _ops(8, 2)
        arr = InterleavedArray(8, waves=2)
        out = arr.run(ops)
        assert len(out) == 2
        assert arr.take_completed() == []
        assert arr.issued == arr.retired == 2
