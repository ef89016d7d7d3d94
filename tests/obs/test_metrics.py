"""Metrics registry: thread safety, exposition validity, edge cases."""

from __future__ import annotations

import threading

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.promcheck import check_prometheus_text


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("jobs_total", "Jobs.")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("jobs_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_24_threads_hammering_drops_nothing(self, registry):
        c = registry.counter("hammer_total")
        per_thread = 2000

        def work():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 24 * per_thread

    def test_labelled_children_are_cached(self, registry):
        c = registry.counter("req_total", "Requests.", ("endpoint",))
        c.labels(endpoint="alloc").inc()
        c.labels(endpoint="alloc").inc()
        c.labels(endpoint="state").inc()
        children = c.children()
        assert children[("alloc",)].value == 2
        assert children[("state",)].value == 1

    def test_wrong_label_set_rejected(self, registry):
        c = registry.counter("req_total", "", ("endpoint",))
        with pytest.raises(ValueError):
            c.labels(verb="GET")


class TestGauge:
    def test_set_inc_dec(self, registry):
        """A gauge goes down by a negative ``inc`` (a counter refuses
        one)."""
        g = registry.gauge("depth")
        g.set(10)
        g.inc(5)
        g.inc(-2)
        assert g.value == 13

    def test_set_function_reads_at_scrape_time(self, registry):
        box = {"v": 1.0}
        g = registry.gauge("live")
        g.set_function(lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 7.0
        assert g.value == 7.0
        assert "live 7" in registry.render()


class TestHistogram:
    def test_empty_histogram_renders_zero_everything(self, registry):
        registry.histogram("lat_seconds", "Latency.")
        text = registry.render()
        assert check_prometheus_text(text) == []
        assert 'lat_seconds_bucket{le="+Inf"} 0' in text
        assert "lat_seconds_sum 0" in text
        assert "lat_seconds_count 0" in text

    def test_cumulative_buckets(self, registry):
        h = registry.histogram("d", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 3.0, 99.0):
            h.observe(v)
        text = registry.render()
        assert 'd_bucket{le="1"} 1' in text
        assert 'd_bucket{le="2"} 3' in text
        assert 'd_bucket{le="5"} 4' in text
        assert 'd_bucket{le="+Inf"} 5' in text
        assert "d_count 5" in text
        assert h.count == 5
        assert h.sum == pytest.approx(105.7)

    def test_value_on_bucket_boundary_counts_le(self, registry):
        h = registry.histogram("b", buckets=(1.0,))
        h.observe(1.0)
        assert 'b_bucket{le="1"} 1' in registry.render()

    def test_no_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=())

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS)

    def test_concurrent_observes(self, registry):
        h = registry.histogram("p", buckets=(0.5,))

        def work():
            for _ in range(1000):
                h.observe(0.1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 8000
        assert h.sum == pytest.approx(800.0)


class TestRegistry:
    def test_get_or_create_is_idempotent(self, registry):
        a = registry.counter("x_total")
        b = registry.counter("x_total")
        assert a is b

    def test_kind_clash_rejected(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "", ("bad-label",))

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""

    def test_full_render_passes_promcheck(self, registry):
        c = registry.counter("req_total", "Requests.", ("endpoint",))
        c.labels(endpoint="alloc").inc(3)
        c.labels(endpoint='we"ird\nlabel\\x').inc()
        registry.gauge("depth", "Queue depth.").set(2.5)
        h = registry.histogram("lat_seconds", "Latency.")
        h.observe(0.004)
        h.observe(12.0)
        text = registry.render()
        assert check_prometheus_text(text) == []
        assert text.endswith("\n")
        assert "depth 2.5" in text

    def test_render_sorted_by_family_name(self, registry):
        registry.counter("zz_total")
        registry.counter("aa_total")
        text = registry.render()
        assert text.index("aa_total") < text.index("zz_total")
