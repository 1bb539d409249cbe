"""Unit tests for the metrics registry."""

import json
import sys
import threading

import pytest

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("ops")
        assert c.value() == 0
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_labelled_series_are_independent(self):
        c = Counter("state_cycles")
        c.inc(3, state="MUL1")
        c.inc(2, state="MUL2")
        assert c.value(state="MUL1") == 3
        assert c.value(state="MUL2") == 2
        assert c.value(state="OUT") == 0
        assert c.total() == 5

    def test_label_order_is_canonical(self):
        c = Counter("x")
        c.inc(1, a="1", b="2")
        c.inc(1, b="2", a="1")
        assert c.value(a="1", b="2") == 2

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_snapshot_rows(self):
        c = Counter("x")
        c.inc(7, state="OUT")
        assert c.snapshot() == [{"labels": {"state": "OUT"}, "value": 7}]


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("depth")
        g.set(3)
        g.set(9)
        assert g.value() == 9

    def test_unset_is_none(self):
        assert Gauge("depth").value(l=8) is None


class TestHistogram:
    def test_count_sum_min_max(self):
        h = Histogram("cycles")
        for v in (28, 28, 29):
            h.observe(v)
        s = h.series()
        assert (s.count, s.sum, s.min, s.max) == (3, 85, 28, 29)

    def test_bucketing_first_bound_gte(self):
        h = Histogram("v", buckets=(1, 4, 16))
        h.observe(1)   # <= 1
        h.observe(3)   # <= 4
        h.observe(16)  # <= 16
        h.observe(17)  # +Inf
        row = h.snapshot()[0]
        assert row["buckets"] == {"1": 1, "4": 1, "16": 1, "+Inf": 1}

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("v", buckets=(4, 2))


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg and len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2, state="MUL1")
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(28)
        doc = json.loads(reg.to_json())
        assert doc["counters"][0]["name"] == "c"
        assert doc["counters"][0]["labels"] == {"state": "MUL1"}
        assert doc["gauges"][0]["value"] == 1.5
        assert doc["histograms"][0]["count"] == 1

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = tmp_path / "m.json"
        reg.write_json(str(path))
        assert json.loads(path.read_text())["counters"][0]["value"] == 1

    def test_render_text_lists_every_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3, state="OUT")
        reg.gauge("g").set(2)
        reg.histogram("h").observe(5)
        text = reg.render_text()
        assert "c{state=OUT} = 3" in text
        assert "g = 2" in text
        assert "count=1 sum=5" in text

    def test_render_text_empty(self):
        assert "no metrics" in MetricsRegistry().render_text()

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert len(reg) == 0


class TestPercentiles:
    def _uniform_1_to_100(self):
        h = Histogram("lat", buckets=tuple(range(10, 101, 10)))
        for v in range(1, 101):
            h.observe(v)
        return h

    def test_known_uniform_distribution_is_exact(self):
        h = self._uniform_1_to_100()
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0

    def test_p0_is_min_p100_is_max(self):
        h = self._uniform_1_to_100()
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100.0

    def test_single_value_series_is_exact_via_clamping(self):
        h = Histogram("lat")
        for _ in range(7):
            h.observe(28)
        assert h.percentile(50) == 28
        assert h.percentile(99) == 28

    def test_overflow_bucket_returns_observed_max(self):
        h = Histogram("lat", buckets=(10,))
        h.observe(5)
        h.observe(12345)
        assert h.percentile(99) == 12345

    def test_empty_or_missing_series_is_none(self):
        h = Histogram("lat")
        assert h.percentile(95) is None
        h.observe(1, backend="a")
        assert h.percentile(95, backend="b") is None

    def test_out_of_range_q_rejected(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_label_subset_aggregates_across_workers(self):
        h = Histogram("lat", buckets=tuple(range(10, 101, 10)))
        for v in range(1, 51):
            h.observe(v, backend="integer", worker="pid1")
        for v in range(51, 101):
            h.observe(v, backend="integer", worker="pid2")
        # Neither exact series holds the full distribution...
        assert h.series(backend="integer") is None
        # ...but the subset aggregate does.
        agg = h.aggregate(backend="integer")
        assert agg.count == 100 and agg.min == 1 and agg.max == 100
        assert h.percentile(50, backend="integer") == 50.0

    def test_snapshot_rows_carry_percentiles(self):
        h = self._uniform_1_to_100()
        row = h.snapshot()[0]
        assert row["p50"] == 50.0 and row["p95"] == 95.0 and row["p99"] == 99.0


class TestCounterTotalSubset:
    def test_subset_total_sums_matching_series(self):
        c = Counter("reqs")
        c.inc(3, backend="a", worker="w1")
        c.inc(4, backend="a", worker="w2")
        c.inc(9, backend="b", worker="w1")
        assert c.total(backend="a") == 7
        assert c.total(worker="w1") == 12
        assert c.total() == 16
        assert c.total(backend="c") == 0


class TestMerge:
    def _worker_registry(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(5, kind="square")
        reg.gauge("depth").set(3)
        for v in (10, 20, 30):
            reg.histogram("lat").observe(v)
        return reg

    def test_merge_adds_extra_labels_everywhere(self):
        parent = MetricsRegistry()
        parent.merge(self._worker_registry(), worker="pid7")
        assert parent.counter("ops").value(kind="square", worker="pid7") == 5
        assert parent.gauge("depth").value(worker="pid7") == 3
        s = parent.histogram("lat").series(worker="pid7")
        assert s.count == 3 and s.sum == 60 and s.min == 10 and s.max == 30

    def test_merge_accepts_snapshot_dict(self):
        snap = self._worker_registry().snapshot()
        parent = MetricsRegistry()
        parent.merge(snap, worker="pid8")
        assert parent.counter("ops").total() == 5

    def test_merging_two_workers_keeps_series_separate(self):
        parent = MetricsRegistry()
        parent.merge(self._worker_registry(), worker="pid1")
        parent.merge(self._worker_registry(), worker="pid2")
        assert parent.counter("ops").total(kind="square") == 10
        assert parent.histogram("lat").aggregate().count == 6
        assert parent.histogram("lat").series(worker="pid1").count == 3

    def test_repeated_merge_into_same_labels_accumulates(self):
        parent = MetricsRegistry()
        parent.merge(self._worker_registry(), worker="pid1")
        parent.merge(self._worker_registry(), worker="pid1")
        s = parent.histogram("lat").series(worker="pid1")
        assert s.count == 6 and s.sum == 120


class TestPrometheusExport:
    def test_counter_gets_total_suffix_and_sanitised_name(self):
        reg = MetricsRegistry()
        reg.counter("serving.requests", "requests seen").inc(
            2, backend="integer"
        )
        text = reg.to_prometheus()
        assert "# HELP serving_requests_total requests seen" in text
        assert "# TYPE serving_requests_total counter" in text
        assert 'serving_requests_total{backend="integer"} 2' in text

    def test_gauge_renders_plain(self):
        reg = MetricsRegistry()
        reg.gauge("queue.depth").set(4)
        assert "# TYPE queue_depth gauge\nqueue_depth 4" in reg.to_prometheus()

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10, 20))
        for v in (5, 15, 99):
            h.observe(v)
        text = reg.to_prometheus()
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="20"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 119" in text
        assert "lat_count 3" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1, path='a"b\\c')
        assert r'path="a\"b\\c"' in reg.to_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_write_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = tmp_path / "m.prom"
        reg.write_prometheus(str(path))
        assert "c_total 1" in path.read_text()


class TestParsePrometheusText:
    """Scrape-side robustness: `repro top` must survive hostile exposition."""

    def test_round_trip_of_own_exposition(self):
        reg = MetricsRegistry()
        reg.counter("reqs").inc(3, backend="gate")
        reg.gauge("depth").set(7)
        parsed = parse_prometheus_text(reg.to_prometheus())
        assert parsed["reqs_total"]["type"] == "counter"
        assert parsed["reqs_total"]["samples"] == [({"backend": "gate"}, 3.0)]
        assert parsed["depth"]["samples"] == [({}, 7.0)]

    def test_truncated_help_and_type_lines_are_skipped(self):
        text = "# HELP\n# TYPE\n# TYPE lonely\n# HELP x partial\nx 4\n"
        parsed = parse_prometheus_text(text)
        # the sample survives; the broken comment lines contribute nothing
        assert parsed["x"]["samples"] == [({}, 4.0)]
        assert parsed["x"]["type"] == "untyped"

    def test_nan_and_inf_values(self):
        import math

        parsed = parse_prometheus_text("a NaN\nb +Inf\nc -Inf\n")
        assert math.isnan(parsed["a"]["samples"][0][1])
        assert parsed["b"]["samples"][0][1] == math.inf
        assert parsed["c"]["samples"][0][1] == -math.inf

    def test_non_numeric_value_is_skipped(self):
        parsed = parse_prometheus_text("a 1\nb banana\n")
        assert "b" not in parsed and "a" in parsed

    def test_unescaped_quote_inside_label_value(self):
        # 'say "hi"' written WITHOUT escaping — invalid exposition.  The
        # parser must not crash or smear labels across samples.
        text = 'm{msg="say "hi"",other="ok"} 1\nnext 2\n'
        parsed = parse_prometheus_text(text)
        assert parsed["next"]["samples"] == [({}, 2.0)]
        if "m" in parsed:  # salvaged labels must at least be well-formed
            for labels, _ in parsed["m"]["samples"]:
                assert all(isinstance(v, str) for v in labels.values())

    def test_escaped_label_values_unescape(self):
        text = 'm{msg="line\\nbreak \\"q\\" back\\\\slash"} 1\n'
        (labels, value), = parse_prometheus_text(text)["m"]["samples"]
        assert labels["msg"] == 'line\nbreak "q" back\\slash'
        assert value == 1.0

    def test_garbage_lines_and_blank_lines(self):
        text = "\n\n!!! not prometheus\n{} 3\nok 1 extra trailing\nok 5\n"
        parsed = parse_prometheus_text(text)
        assert parsed.keys() == {"ok"}
        # `ok 1 extra trailing` has trailing junk -> skipped; `ok 5` kept
        assert parsed["ok"]["samples"] == [({}, 5.0)]

    def test_histogram_suffixes_inherit_base_type(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10,))
        h.observe(5)
        parsed = parse_prometheus_text(reg.to_prometheus())
        for name in ("lat_bucket", "lat_sum", "lat_count"):
            assert parsed[name]["type"] == "histogram"


class TestConcurrentUpdates:
    """Serving threads count into one registry at once; no update is lost."""

    THREADS = 4
    PER_THREAD = 10_000

    def _hammer(self, update):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            threads = [
                threading.Thread(
                    target=lambda: [update(i) for i in range(self.PER_THREAD)]
                )
                for _ in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)

    def test_counter_inc_is_exact(self):
        c = Counter("serving.requeued")
        self._hammer(lambda i: c.inc(shard="0"))
        assert c.value(shard="0") == self.THREADS * self.PER_THREAD

    def test_histogram_observe_is_exact(self):
        # A fresh label set per step: every step races the other threads
        # to create its series as well as to update it.
        h = Histogram("serving.queue_wait_us")
        self._hammer(lambda i: h.observe(3.0, step=i))
        series = h.aggregate()
        total = self.THREADS * self.PER_THREAD
        assert series.count == total
        assert series.sum == 3.0 * total
        assert sum(series.bucket_counts) == total
