"""The golden exponentiator's chain equals the reference pipeline (hypothesis).

:meth:`~repro.systolic.exponentiator.ModularExponentiator.exponentiate`
on the golden engine checks the chain's entry operands before its first
product and then runs one counted closed-form product per multiplication.
For any modulus from 2 to 1100 bits, any exponent up to 2^64 and bases at
the window's edges, it must agree with
:func:`~repro.montgomery.exponent.montgomery_modexp` (which keeps a trace
of every product) on the value and the operation kinds, with the cycle model on ``run.cycles``, and with the
per-product ``(kind, cycles)`` log.  Observation changes nothing but the
telemetry it records.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.montgomery.exponent import montgomery_modexp
from repro.montgomery.params import MontgomeryContext
from repro.observability import MetricsRegistry, SpanTracer, observe
from repro.systolic.exponentiator import ModularExponentiator
from repro.systolic.timing import (
    exponentiation_cycles_measured_model,
    mmm_cycles,
    mmm_cycles_corrected,
)


@st.composite
def chains(draw):
    """(ctx, base, exponent, mode): N of 2..1100 bits, bases at the edges."""
    bits = draw(st.integers(2, 1100))
    n = (1 << (bits - 1)) | draw(st.integers(0, (1 << (bits - 1)) - 1)) | 1
    ctx = MontgomeryContext(n)
    base = draw(st.one_of(st.sampled_from([0, 1, n - 1]), st.integers(0, n - 1)))
    exponent = draw(
        st.one_of(st.sampled_from([1, 2, 3, 1 << 64]), st.integers(1, 1 << 64))
    )
    return ctx, base, exponent, draw(st.sampled_from(["corrected", "paper"]))


def _run(ctx, base, exponent, mode):
    run = ModularExponentiator(ctx, engine="golden", mode=mode).exponentiate(
        base, exponent
    )
    return run.result, run.cycles, run.num_multiplications, list(run.operations)


class TestGoldenChainEqualsReference:
    @given(chains())
    @settings(max_examples=150, deadline=None)
    def test_value_kinds_cycles_and_log(self, case):
        ctx, base, exponent, mode = case
        value, trace = montgomery_modexp(ctx, base, exponent)
        kinds = [op.kind for op in trace.operations]
        cost = (mmm_cycles_corrected if mode == "corrected" else mmm_cycles)(ctx.l)
        result, cycles, count, operations = _run(ctx, base, exponent, mode)
        assert result == value == pow(base, exponent, ctx.modulus)
        assert operations == [(kind, cost) for kind in kinds]
        assert count == len(kinds)
        assert cycles == exponentiation_cycles_measured_model(
            ctx.l, exponent, mode=mode
        ).total

    @given(chains())
    @settings(max_examples=40, deadline=None)
    def test_observed_run_is_identical_and_counts_every_product(self, case):
        ctx, base, exponent, mode = case
        plain = _run(ctx, base, exponent, mode)
        registry, tracer = MetricsRegistry(), SpanTracer()
        with observe(metrics=registry, tracer=tracer):
            observed = _run(ctx, base, exponent, mode)
        assert observed == plain
        _, cycles, _, operations = plain
        kinds = Counter(kind for kind, _ in operations)
        ops = registry.counter("exponentiator.operations")
        hist = registry.histogram("exponentiator.operation_cycles")
        for kind, count in kinds.items():
            assert ops.value(kind=kind) == count
            series = hist.series(kind=kind)
            assert (series.count, series.sum) == (count, count * operations[0][1])
        assert [(s["name"], s["dur"]) for s in tracer.spans()] == [
            *operations,
            ("exponentiate", cycles),
        ]
        assert tracer.open_spans == 0
