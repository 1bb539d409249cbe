"""Tests of the benchmark's own helpers.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import repro.systolic.exponentiator as exponentiator  # noqa: E402
from repro.montgomery.params import precompute_montgomery_constants  # noqa: E402
from repro.serving import ModExpRequest, ModExpResult  # noqa: E402
from repro.serving.backends import IntegerBackend  # noqa: E402

from layers import ROWS, LayerClock, ShardBatch  # noqa: E402
from measure import min_samples, mmm_count, percentile  # noqa: E402
from probe import NOMINAL_PROBE_S, HostProbe  # noqa: E402
from workloads import WORKLOADS, AccountingError, LoopRun, Outcome, _outcomes  # noqa: E402


class TestPercentile:
    def test_minimum_sample_counts(self):
        assert min_samples(50) == 20
        assert min_samples(90) == 100
        assert min_samples(99) == 1000

    @pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
    def test_refuses_fewer_than_ten_samples_beyond(self, q, enough):
        with pytest.raises(ValueError, match="beyond"):
            percentile(list(range(enough - 1)), q)
        assert percentile(list(range(enough)), q) == enough - 11

    def test_nearest_rank_ignores_input_order(self):
        samples = [float(x) for x in reversed(range(1, 101))]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 90) == 90.0


class TestMMMCount:
    @pytest.mark.parametrize("exponent", [1, 2, 3, 17, 0b101101, 65537, 0xFFFF, 0xDEADBEEFCAFEF00D])
    def test_closed_form_matches_counted_products(self, monkeypatch, exponent):
        calls = []
        real = exponentiator.montgomery_no_subtraction

        def counting(ctx, x, y):
            calls.append((x, y))
            return real(ctx, x, y)

        monkeypatch.setattr(exponentiator, "montgomery_no_subtraction", counting)
        n = (1 << 63) | 0x1234567
        request = ModExpRequest(base=12345, exponent=exponent, modulus=n)
        result = IntegerBackend().execute(precompute_montgomery_constants(n), request)
        assert result.value == pow(12345, exponent, n)
        assert len(calls) == mmm_count(exponent)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestLayerTable:
    def test_rows_and_residue_sum_to_wall(self):
        clock = LayerClock()
        inner = clock.timed("params.precompute", lambda: _busy(0.01))

        def outer_body():
            _busy(0.01)
            inner()

        outer = clock.timed("scheduler.coalesce", outer_body)
        started = time.perf_counter()
        outer()
        _busy(0.005)  # inside the call, outside every wrapper
        wall = time.perf_counter() - started

        rows = clock.table(wall)
        assert list(rows) == list(ROWS)
        assert sum(rows.values()) == pytest.approx(wall, abs=1e-9)
        # Self time: the nested call counts once, in its own row.
        assert rows["params.precompute"] == pytest.approx(0.01, abs=0.004)
        assert rows["scheduler.coalesce"] == pytest.approx(0.01, abs=0.004)
        assert rows["service.unattributed"] >= 0.004

    def test_await_splits_by_batch_time(self):
        clock = LayerClock()
        clock.self_s["service.await"] = 0.8
        trips = [(0.5, 0.3, 0.1), (0.3, 0.1, 0.1)]  # round trip, executing, decoding
        for batch_id, (roundtrip, executing, decoding) in enumerate(trips):
            batch = clock.batches[batch_id] = ShardBatch(4, 100, 0.0)
            batch.roundtrip_s, batch.exec_s, batch.decode_s = roundtrip, executing, decoding

        rows = clock.table(1.0)
        assert rows["service.await"] == 0.0
        assert rows["backends.exec"] == pytest.approx(0.8 * 0.4 / 1.0)
        assert rows["wire.frame_decode"] == pytest.approx(0.8 * 0.2 / 1.0)
        assert rows["shard.transit_queue"] == pytest.approx(0.8 * 0.4 / 1.0)
        assert sum(rows.values()) == pytest.approx(1.0)

    def test_installed_restores_every_entry_point(self):
        import repro.serving.service as service_module
        from concurrent.futures import Future

        before = (service_module.coalesce, Future.__dict__["result"])
        with LayerClock().installed():
            assert service_module.coalesce is not before[0]
        assert (service_module.coalesce, Future.__dict__["result"]) == before


class TestHostProbe:
    def test_speed_is_nominal_over_median_and_the_child_ends(self):
        with HostProbe() as probe:
            assert probe.sample() > 0
            probe.samples[:] = [NOMINAL_PROBE_S * 2, NOMINAL_PROBE_S * 4, NOMINAL_PROBE_S]
            assert probe.speed() == pytest.approx(0.5)
            assert probe.speed(first=2) == pytest.approx(1.0)
        assert probe._process.returncode == 0


class TestAccounting:
    def _window(self):
        return [ModExpRequest(base=b, exponent=3, modulus=101, request_id=f"r{b}") for b in (2, 3)]

    def test_one_result_per_request_id(self):
        window = self._window()
        good = [ModExpResult.success(r, r.expected()) for r in window]
        assert [o.value for o in _outcomes(WORKLOADS["keyring"], window, good)] == [8, 27]
        with pytest.raises(AccountingError, match="two results"):
            _outcomes(WORKLOADS["keyring"], window, [good[0], good[0]])
        with pytest.raises(AccountingError, match="2 requests sent"):
            _outcomes(WORKLOADS["keyring"], window, good[:1])

    def test_wrong_value_is_refused(self):
        window = self._window()
        run = LoopRun()
        run.add(Outcome(window[0], True, 8, "", None, None))
        with pytest.raises(AccountingError, match="pow"):
            run.add(Outcome(window[1], True, 28, "", None, None))

    def test_classes_add_up_to_sent(self):
        window = self._window()
        run = LoopRun()
        run.counts["sent"] = 2
        run.add(Outcome(window[0], True, 8, "", 100, 50.0))
        run.add(Outcome(window[1], False, None, "RequestShed", None, None))
        assert run.checked_counts() == {"sent": 2, "ok": 1, "failed": 0, "shed": 1, "expired": 0}
        assert (run.cycles, run.exec_s, run.mmms) == (100, 50e-6, mmm_count(3))
        run.counts["sent"] = 3
        with pytest.raises(AccountingError, match="add up"):
            run.checked_counts()
