"""Integration tests: the instrumented simulators report correct numbers.

These pin the observability layer against the paper's timing facts: one
``l=8`` paper-mode multiplication charges exactly ``3l+4`` cycles to the
MUL+OUT states, span totals equal the measured cycle counters, and a
disabled observer leaves the simulation results bit-identical.
"""

import pytest

from repro.montgomery.params import MontgomeryContext
from repro.observability import (
    OBS,
    MetricsRegistry,
    SpanTracer,
    observe,
    validate_chrome_trace,
)
from repro.systolic.exponentiator import ModularExponentiator
from repro.systolic.mmmc import MMMC

N8 = 197  # l = 8
X, Y = 300, 150


class TestObserverLifecycle:
    def test_disabled_by_default(self):
        assert OBS.enabled is False
        assert OBS.metrics is None and OBS.tracer is None

    def test_methods_are_noops_when_disabled(self):
        OBS.count("x")
        OBS.gauge("x", 1)
        OBS.record("x", 1)
        OBS.begin("x")
        OBS.end()
        OBS.instant("x")
        OBS.counter_event("x", 1)
        assert OBS.enabled is False

    def test_observe_installs_and_restores(self):
        reg = MetricsRegistry()
        with observe(metrics=reg):
            assert OBS.enabled and OBS.metrics is reg
        assert not OBS.enabled and OBS.metrics is None

    def test_observe_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with observe(metrics=MetricsRegistry()):
                raise RuntimeError("boom")
        assert not OBS.enabled

    def test_sessions_nest(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with observe(metrics=outer):
            with observe(metrics=inner):
                OBS.count("c")
            OBS.count("c")
        assert inner.counter("c").value() == 1
        assert outer.counter("c").value() == 1

    def test_tracer_clock_becomes_session_clock(self):
        tr = SpanTracer()
        with observe(tracer=tr):
            OBS.tick(5)
        assert tr.clock.now == 5


class TestStateHistogram:
    def test_paper_mode_l8_multiplication_is_exactly_3l_plus_4(self):
        reg = MetricsRegistry()
        with observe(metrics=reg):
            MMMC(8, mode="paper").multiply(X, Y, N8)
        states = reg.counter("controller.state_cycles")
        mul_out = (
            states.value(state="MUL1")
            + states.value(state="MUL2")
            + states.value(state="OUT")
        )
        assert mul_out == 3 * 8 + 4
        # The single IDLE tick is the load cycle overlapping START.
        assert states.value(state="IDLE") == 1

    def test_corrected_mode_adds_one_cycle(self):
        reg = MetricsRegistry()
        with observe(metrics=reg):
            run = MMMC(8, mode="corrected").multiply(X, Y, N8)
        states = reg.counter("controller.state_cycles")
        mul_out = (
            states.value(state="MUL1")
            + states.value(state="MUL2")
            + states.value(state="OUT")
        )
        assert mul_out == 3 * 8 + 5 == run.cycles

    def test_mmmc_counters_and_histogram(self):
        reg = MetricsRegistry()
        with observe(metrics=reg):
            mmmc = MMMC(8, mode="paper")
            mmmc.multiply(X, Y, N8)
            mmmc.multiply(Y, X, N8)
        assert reg.counter("mmmc.multiplications").value() == 2
        assert reg.counter("array.loads").value() == 2
        assert reg.counter("array.cycles").value() == 2 * (3 * 8 + 3)
        series = reg.histogram("mmmc.multiplication_cycles").series()
        assert series.count == 2 and series.min == series.max == 3 * 8 + 4


class TestSpans:
    def test_mmm_span_duration_equals_measured_cycles(self):
        tr = SpanTracer()
        with observe(tracer=tr):
            run = MMMC(8, mode="paper").multiply(X, Y, N8)
        (span,) = tr.spans("mmm")
        assert span["dur"] == run.cycles == 3 * 8 + 4
        assert span["args"]["l"] == 8 and span["args"]["mode"] == "paper"

    def test_state_detail_emits_one_segment_per_charged_cycle(self):
        tr = SpanTracer(detail="state")
        with observe(tracer=tr):
            run = MMMC(8, mode="paper").multiply(X, Y, N8)
        segments = [e for e in tr.events if e["name"].startswith("state:")]
        assert len(segments) == run.cycles
        assert all(e["dur"] == 1 for e in segments)
        # Segments tile the span with no gaps.
        assert [e["ts"] for e in segments] == list(range(run.cycles))
        assert segments[-1]["name"] == "state:OUT"

    def test_op_detail_omits_segments(self):
        tr = SpanTracer(detail="op")
        with observe(tracer=tr):
            MMMC(8, mode="paper").multiply(X, Y, N8)
        assert not [e for e in tr.events if e["name"].startswith("state:")]

    @pytest.mark.parametrize("engine", ["behavioral", "golden"])
    def test_exponentiation_span_totals_agree_with_counters(self, engine):
        ctx = MontgomeryContext(N8)
        tr = SpanTracer()
        reg = MetricsRegistry()
        with observe(metrics=reg, tracer=tr):
            run = ModularExponentiator(ctx, engine=engine).exponentiate(100, 0b110101)
        assert tr.span_cycles("exponentiate") == run.cycles
        per_op = sum(
            tr.span_cycles(kind) for kind in ("pre", "square", "multiply", "post")
        )
        assert per_op == run.cycles
        ops = reg.counter("exponentiator.operations")
        assert ops.value(kind="square") == 0b110101 .bit_length() - 1
        assert ops.value(kind="multiply") == bin(0b110101).count("1") - 1
        assert validate_chrome_trace(tr.to_dict()) == []

    def test_rtl_exponentiation_nests_mmm_spans(self):
        ctx = MontgomeryContext(N8)
        tr = SpanTracer()
        with observe(tracer=tr):
            run = ModularExponentiator(ctx, engine="behavioral").exponentiate(100, 0b1011)
        assert tr.span_cycles("mmm") == run.cycles
        assert len(tr.spans("mmm")) == run.num_multiplications


class TestHdlInstrumentation:
    def test_gate_level_multiply_populates_hdl_counters(self):
        from repro.systolic.mmmc_netlist import GateLevelMMMC

        reg = MetricsRegistry()
        with observe(metrics=reg):
            GateLevelMMMC(4, "paper").multiply(10, 7, 13)
        assert reg.counter("hdl.cycles").value() > 0
        assert reg.counter("hdl.gate_evals").value() > 0
        assert reg.counter("hdl.dff_captures").value() > 0
        gates = reg.histogram("hdl.gates_per_cycle").series()
        assert gates.count > 0 and gates.min == gates.max  # fixed netlist


class TestDisabledModeEquivalence:
    def test_results_identical_with_and_without_observer(self):
        baseline = MMMC(8, mode="paper").multiply(X, Y, N8)
        with observe(metrics=MetricsRegistry(), tracer=SpanTracer(detail="cycle")):
            observed = MMMC(8, mode="paper").multiply(X, Y, N8)
        disabled = MMMC(8, mode="paper").multiply(X, Y, N8)
        assert baseline == observed == disabled

    def test_exponentiation_identical_with_and_without_observer(self):
        ctx = MontgomeryContext(N8)

        def run():
            return ModularExponentiator(ctx, engine="behavioral").exponentiate(77, 0b10111)

        baseline = run()
        with observe(metrics=MetricsRegistry(), tracer=SpanTracer(detail="state")):
            observed = run()
        assert (baseline.result, baseline.cycles, baseline.operations) == (
            observed.result,
            observed.cycles,
            observed.operations,
        )
