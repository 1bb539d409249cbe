"""The graceful-degradation ladder: policies alone, then wired into the service."""

from __future__ import annotations

import random
import time

import pytest

from repro.errors import ParameterError, RequestShed
from repro.observability import MetricsRegistry, observe
from repro.serving.overload import (
    BROWNOUT_LEVELS,
    BrownoutController,
    CoDelShedder,
    OverloadConfig,
    TokenBucket,
)
from repro.serving.request import ModExpRequest
from repro.serving.service import ModExpService
from repro.utils.rng import random_odd_modulus


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


def _requests(count: int, *, priority: str = "batch", **kw):
    rng = random.Random("overload")
    n = random_odd_modulus(48, rng)
    return [
        ModExpRequest(
            rng.randrange(n),
            rng.randrange(1, n),
            n,
            request_id=f"ovl{i}",
            priority=priority,
            **kw,
        )
        for i in range(count)
    ]


class TestOverloadConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(admit_rate=0.0),
            dict(interactive_reserve=1.0),
            dict(shed_target_s=0.0),
            dict(brownout_low=0.8, brownout_high=0.5),
            dict(default_budget_s=0.0),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ParameterError):
            OverloadConfig(**kw)

    def test_budget_for_falls_back_to_default(self):
        cfg = OverloadConfig(default_budget_s=2.0, interactive_budget_s=0.5)
        assert cfg.budget_for("interactive") == 0.5
        assert cfg.budget_for("batch") == 2.0
        assert OverloadConfig().budget_for("batch") is None


class TestTokenBucket:
    def test_batch_stops_at_the_reserve_line(self, clock):
        bucket = TokenBucket(10.0, 10.0, reserve=0.3, clock=clock)
        admitted = 0
        while bucket.try_admit("batch"):
            admitted += 1
        assert admitted == 7  # 10 - reserve floor of 3
        # The reserve slice is still spendable by interactive traffic.
        assert bucket.try_admit("interactive")

    def test_refill_restores_admission(self, clock):
        bucket = TokenBucket(5.0, 5.0, reserve=0.0, clock=clock)
        while bucket.try_admit("batch"):
            pass
        assert not bucket.try_admit("batch")
        clock.now += 1.0  # 5 tokens refill
        assert bucket.try_admit("batch")

    def test_level_gauge(self, clock):
        bucket = TokenBucket(4.0, 4.0, reserve=0.0, clock=clock)
        assert bucket.level == 1.0
        bucket.try_admit("batch", tokens=2.0)
        assert bucket.level == 0.5

    def test_unknown_priority_rejected(self, clock):
        with pytest.raises(ParameterError):
            TokenBucket(1.0, clock=clock).try_admit("urgent")


class TestCoDelShedder:
    def test_below_target_never_sheds(self, clock):
        shed = CoDelShedder(0.05, 0.5, clock=clock)
        for _ in range(100):
            assert not shed.offer(0.01)
            clock.now += 0.01
        assert not shed.dropping

    def test_sheds_after_a_standing_interval(self, clock):
        shed = CoDelShedder(0.05, 0.5, clock=clock)
        assert not shed.offer(0.1)  # first crossing only starts the timer
        clock.now += 0.4
        assert not shed.offer(0.1)  # not a full interval yet
        clock.now += 0.2
        assert shed.offer(0.1)  # standing queue: drop
        assert shed.dropping

    def test_drop_rate_accelerates(self, clock):
        shed = CoDelShedder(0.05, 1.0, clock=clock)
        shed.offer(0.1)
        clock.now += 1.0
        assert shed.offer(0.1)  # first drop
        drops = 0
        for _ in range(400):
            clock.now += 0.01
            if shed.offer(0.1):
                drops += 1
        # 4 seconds of standing queue at interval 1.0: the 1/sqrt(count)
        # law yields strictly more than 4 drops.
        assert drops > 4

    def test_draining_below_target_resets(self, clock):
        shed = CoDelShedder(0.05, 0.5, clock=clock)
        shed.offer(0.1)
        clock.now += 0.6
        assert shed.offer(0.1)
        assert not shed.offer(0.01)  # queue drained
        assert not shed.dropping


class TestBrownoutController:
    def test_escalates_and_recovers_through_levels(self, clock):
        ctl = BrownoutController(
            high=0.7, low=0.2, dwell_s=1.0, alpha=1.0, clock=clock
        )
        assert ctl.level == 0 and ctl.level_name == BROWNOUT_LEVELS[0]
        for expect in (1, 2, 3):
            clock.now += 1.0
            assert ctl.update(1.0) == expect
        clock.now += 1.0
        assert ctl.update(1.0) == 3  # capped
        for expect in (2, 1, 0):
            clock.now += 1.0
            assert ctl.update(0.0) == expect

    def test_dwell_prevents_flapping(self, clock):
        ctl = BrownoutController(
            high=0.7, low=0.2, dwell_s=10.0, alpha=1.0, clock=clock
        )
        clock.now += 10.0
        assert ctl.update(1.0) == 1
        assert ctl.update(1.0) == 1  # still inside the dwell window
        clock.now += 10.0
        assert ctl.update(1.0) == 2

    def test_levers_engage_in_order(self, clock):
        ctl = BrownoutController(
            high=0.7, low=0.2, dwell_s=0.0, alpha=1.0, clock=clock
        )
        assert ctl.verify_scale() == 1.0
        assert not ctl.reroute_cheap and not ctl.batch_suspended
        ctl.update(1.0)
        assert ctl.verify_scale() < 1.0
        assert not ctl.reroute_cheap
        ctl.update(1.0)
        assert ctl.reroute_cheap and not ctl.batch_suspended
        ctl.update(1.0)
        assert ctl.batch_suspended
        assert ctl.verify_scale() > 0.0  # a trickle of verification survives


class TestServiceAdmission:
    def test_token_bucket_sheds_batch_overflow(self):
        overload = OverloadConfig(
            admit_rate=0.001, admit_burst=3.0, interactive_reserve=0.0
        )
        with ModExpService(worker_kind="inline", overload=overload) as service:
            results = service.process(_requests(8))
        ok = [r for r in results if r.ok]
        shed = [r for r in results if r.error_type == "RequestShed"]
        assert len(ok) == 3 and len(shed) == 5
        assert all("admission" in r.error for r in shed)

    def test_interactive_reserve_survives_a_batch_flood(self):
        overload = OverloadConfig(
            admit_rate=0.001, admit_burst=4.0, interactive_reserve=0.5
        )
        with ModExpService(worker_kind="inline", overload=overload) as service:
            batch = service.process(_requests(8))
            interactive = service.process(
                _requests(2, priority="interactive")
            )
        # Batch drained only down to the reserve line...
        assert sum(r.ok for r in batch) == 2
        # ...leaving the reserve slice for interactive traffic.
        assert all(r.ok for r in interactive)

    def test_expired_request_fails_at_admission(self):
        stale = _requests(1, expires_at=time.monotonic() - 1.0)
        with ModExpService(
            worker_kind="inline", overload=OverloadConfig()
        ) as service:
            result = service.process(stale)[0]
        assert not result.ok
        assert result.error_type == "DeadlineExceeded"

    def test_budget_is_stamped_and_generous_budgets_complete(self):
        overload = OverloadConfig(default_budget_s=60.0)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(
                worker_kind="inline", overload=overload
            ) as service:
                results = service.process(_requests(4))
        assert all(r.ok for r in results)
        # Completed inside the budget: no violations recorded.
        assert "serving.deadline_violations" not in registry

    def test_without_overload_nothing_changes(self):
        with ModExpService(worker_kind="inline") as service:
            results = service.process(
                _requests(4, expires_at=time.monotonic() - 1.0)
            )
        # No overload config: expires_at is ignored entirely.
        assert all(r.ok for r in results)


class _AlwaysShed:
    target_s = 0.0

    def offer(self, sojourn_s):
        return True


class TestServiceShedding:
    def test_codel_sheds_batch_not_interactive(self):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(
                worker_kind="inline", overload=OverloadConfig()
            ) as service:
                service._shedder = _AlwaysShed()
                batch = service.process(_requests(3))
                interactive = service.process(
                    _requests(3, priority="interactive")
                )
        assert all(r.error_type == "RequestShed" for r in batch)
        assert all(r.ok for r in interactive)
        shed = registry.counter("serving.shed_requests")
        assert shed.total(reason="codel") == 3

    def test_brownout_level_three_refuses_batch_admission(self, clock):
        with ModExpService(
            worker_kind="inline", overload=OverloadConfig(brownout=True)
        ) as service:
            ctl = BrownoutController(
                high=0.7, low=0.2, dwell_s=0.0, alpha=1.0, clock=clock
            )
            for _ in range(3):
                ctl.update(1.0)
            # Freeze the controller at level 3: the service's own pressure
            # samples (an idle inline pool) must not step it back down.
            ctl.dwell_s = 1e9
            service._brownout = ctl
            batch = service.process(_requests(2))
            interactive = service.process(_requests(2, priority="interactive"))
        assert all(r.error_type == "RequestShed" for r in batch)
        assert all("brownout" in r.error for r in batch)
        assert all(r.ok for r in interactive)

    def test_brownout_thins_verification(self, clock):
        from repro.robustness import VerifyPolicy

        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(
                worker_kind="inline",
                verify=VerifyPolicy(mode="full"),
                overload=OverloadConfig(brownout=True),
            ) as service:
                ctl = BrownoutController(
                    high=0.7, low=0.2, dwell_s=0.0, alpha=1.0, clock=clock
                )
                ctl.update(1.0)  # level 1: verify scaled to 1/4
                ctl.dwell_s = 1e9  # freeze: idle-pool samples must not reset it
                service._brownout = ctl
                results = service.process(_requests(40))
        assert all(r.ok for r in results)
        skipped = registry.counter("serving.verify_skipped").total()
        verified = registry.counter("serving.verified").total()
        assert skipped > 0
        assert verified > 0  # thinned, not eliminated
        assert verified + skipped == 40

    def test_shed_results_count_as_rejected_on_the_wire(self):
        import io

        from repro.serving.wire import request_to_json

        overload = OverloadConfig(
            admit_rate=0.001, admit_burst=1.0, interactive_reserve=0.0
        )
        lines = [request_to_json(r) + "\n" for r in _requests(4)]
        out = io.StringIO()
        with ModExpService(worker_kind="inline", overload=overload) as service:
            stats = service.serve(iter(lines), out)
        assert stats["ok"] == 1
        assert stats["rejected"] == 3
        assert stats["failed"] == 0
