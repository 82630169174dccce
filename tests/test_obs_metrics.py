"""Tests for repro.obs.metrics."""

import json
import math
import threading

import pytest

import re

from repro.obs.metrics import (Counter, DEFAULT_BUCKETS, Gauge, Histogram,
                               MetricsRegistry, escape_help_text,
                               escape_label_value)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-3)
        assert gauge.value == 12

    def test_set_max_keeps_high_water(self):
        gauge = Gauge("g")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5
        gauge.set_max(9)
        assert gauge.value == 9


class TestHistogram:
    def test_default_buckets_are_log_scale(self):
        ratios = [DEFAULT_BUCKETS[i + 1] / DEFAULT_BUCKETS[i]
                  for i in range(len(DEFAULT_BUCKETS) - 1)]
        for ratio in ratios:
            assert ratio == pytest.approx(math.sqrt(10), rel=1e-6)

    def test_observe_routes_to_bucket(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(555.5)
        counts = hist.bucket_counts()
        assert counts["1.0"] == 1     # 0.5 <= 1.0
        assert counts["10.0"] == 1    # 5.0
        assert counts["100.0"] == 1   # 50.0
        assert counts["inf"] == 1     # 500.0 overflows

    def test_boundary_value_goes_to_lower_bucket(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        hist.observe(1.0)
        assert hist.bucket_counts()["1.0"] == 1

    def test_needs_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("x", telescope="T1")
        b = registry.counter("x", telescope="T1")
        c = registry.counter("x", telescope="T2")
        assert a is b
        assert a is not c

    def test_label_order_is_normalized(self):
        registry = MetricsRegistry()
        a = registry.counter("x", a=1, b=2)
        b = registry.counter("x", b=2, a=1)
        assert a is b

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("pkts", telescope="T1").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"pkts{telescope=T1}": 3}
        assert snap["gauges"] == {"depth": 7}
        assert snap["histograms"]["lat"]["count"] == 1
        # snapshot must round-trip through JSON
        assert json.loads(json.dumps(snap)) == snap

    def test_reset_zeroes_but_keeps_bound_references(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        # the pre-reset reference still feeds the registry
        assert registry.snapshot()["counters"]["x"] == 1

    def test_thread_safety_under_concurrent_increments(self):
        registry = MetricsRegistry()
        threads = 8
        per_thread = 5000

        def worker():
            for _ in range(per_thread):
                registry.counter("shared", kind="race").inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert registry.counter("shared", kind="race").value \
            == threads * per_thread


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("telescope.packets_total", telescope="T1").inc(42)
        registry.gauge("sim.queue_depth").set(7)
        text = registry.to_prometheus()
        assert "# TYPE telescope_packets_total counter" in text
        assert 'telescope_packets_total{telescope="T1"} 42' in text
        assert "# TYPE sim_queue_depth gauge" in text
        assert "sim_queue_depth 7" in text
        assert text.endswith("\n")

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="10.0"} 3' in text   # cumulative
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text
        # no stray TYPE lines for the generated sub-series
        assert "# TYPE lat_bucket" not in text

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("a.b-c/d").inc()
        assert "a_b_c_d 1" in registry.to_prometheus()


class TestPrometheusConformance:
    """Exposition format 0.0.4 conformance of ``to_prometheus``."""

    #: ``name{labels} value`` — the sample-line grammar, labels optional.
    SAMPLE = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*'                       # metric name
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"'     # first label
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})?'
        r' [0-9eE.+\-]+(inf|nan)?$', re.IGNORECASE)

    def _full_registry(self):
        registry = MetricsRegistry()
        registry.counter("pkts.total", telescope="T1", kind="icmp").inc(3)
        registry.counter("pkts.total", telescope="T2", kind="tcp").inc(5)
        registry.gauge("sim.queue_depth").set(7.5)
        hist = registry.histogram("session.bytes", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 500.0):
            hist.observe(value)
        return registry

    def test_every_family_has_help_and_type(self):
        text = self._full_registry().to_prometheus()
        for family, kind in (("pkts_total", "counter"),
                             ("sim_queue_depth", "gauge"),
                             ("session_bytes", "histogram")):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} {kind}" in text
            # exactly one HELP/TYPE pair per family, not per series
            assert text.count(f"# TYPE {family} ") == 1

    def test_histogram_emits_sum_count_and_inf(self):
        text = self._full_registry().to_prometheus()
        assert 'session_bytes_bucket{le="1.0"} 1' in text
        assert 'session_bytes_bucket{le="10.0"} 2' in text
        assert 'session_bytes_bucket{le="+Inf"} 3' in text
        assert "session_bytes_sum 505.5" in text
        assert "session_bytes_count 3" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c\nd').inc()
        text = registry.to_prometheus()
        assert 'c{path="a\\"b\\\\c\\nd"} 1' in text
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        assert escape_help_text("a\\b\nc") == "a\\\\b\\nc"

    def test_every_line_matches_the_grammar(self):
        text = self._full_registry().to_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert self.SAMPLE.match(line), f"malformed sample: {line!r}"


class TestMergeSnapshot:
    """Folding one registry's snapshot into another (sharded builds)."""

    def test_counters_add_and_gain_extra_labels(self):
        worker = MetricsRegistry()
        worker.counter("telescope.packets_total", telescope="T1").inc(10)
        worker.counter("plain_total").inc(3)
        coord = MetricsRegistry()
        coord.counter("telescope.packets_total", telescope="T1").inc(1)
        coord.merge_snapshot(worker.snapshot(), shard=2)
        counters = coord.snapshot()["counters"]
        assert counters[
            "telescope.packets_total{shard=2,telescope=T1}"] == 10
        assert counters["plain_total{shard=2}"] == 3
        # the coordinator's own series is untouched
        assert counters["telescope.packets_total{telescope=T1}"] == 1

    def test_gauges_keep_max_and_histograms_merge(self):
        worker = MetricsRegistry()
        worker.gauge("depth").set(5)
        worker.histogram("lat", bounds=(1.0, 10.0)).observe(0.5)
        worker.histogram("lat", bounds=(1.0, 10.0)).observe(50.0)
        coord = MetricsRegistry()
        coord.merge_snapshot(worker.snapshot(), shard=0)
        coord.merge_snapshot(worker.snapshot(), shard=0)  # idempotent labels
        snapshot = coord.snapshot()
        assert snapshot["gauges"]["depth{shard=0}"] == 5
        hist = snapshot["histograms"]["lat{shard=0}"]
        assert hist["count"] == 4
        assert hist["buckets"]["1.0"] == 2
        assert hist["buckets"]["inf"] == 2
