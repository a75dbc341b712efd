"""Exposition-format correctness for the metrics registry.

The format contract is Prometheus text exposition 0.0.4; these tests
pin the parts that silently corrupt scrapes when wrong — label value
escaping, histogram bucket cumulativity/monotonicity, integer vs float
rendering — plus the registry's get-or-create and type-conflict
semantics.
"""

import math
import threading

import pytest

from repro.exceptions import ParameterError
from repro.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_accumulates(self, registry):
        c = registry.counter("jobs_total", "jobs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("jobs_total", "jobs")
        with pytest.raises(ParameterError):
            c.inc(-1)

    def test_labeled_children_are_independent(self, registry):
        c = registry.counter("req_total", "reqs", labelnames=("op",))
        c.labels(op="route").inc(3)
        c.labels(op="estimate").inc(4)
        assert c.labels(op="route").value == 3
        assert c.labels(op="estimate").value == 4

    def test_labels_get_or_create_same_child(self, registry):
        c = registry.counter("req_total", "reqs", labelnames=("op",))
        assert c.labels(op="route") is c.labels("route")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth", "queue depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_callback_gauge(self, registry):
        box = [7]
        g = registry.gauge("live", "live value")
        g.set_function(lambda: box[0])
        assert g.value == 7
        box[0] = 9
        assert g.value == 9

    def test_callback_exception_reads_zero(self, registry):
        g = registry.gauge("live", "live value")
        g.set_function(lambda: 1 / 0)
        assert g.value == 0.0


class TestHistogram:
    def test_observe_counts_and_sum(self, registry):
        h = registry.histogram("lat", "latency",
                               buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)

    def test_buckets_must_strictly_increase(self, registry):
        with pytest.raises(ParameterError):
            registry.histogram("bad", "x", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ParameterError):
            registry.histogram("bad2", "x", buckets=(2.0, 1.0))

    def test_cumulative_bucket_monotonicity(self, registry):
        h = registry.histogram("lat", "latency")
        import random
        rng = random.Random(7)
        for _ in range(500):
            h.observe(rng.expovariate(10.0))
        counts = h.cumulative_counts()
        # explicit buckets only; the implicit +Inf bucket == count
        assert len(counts) == len(DEFAULT_BUCKETS)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] <= h.count == 500


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("x_total", "x")
        b = registry.counter("x_total", "different help ignored")
        assert a is b

    def test_type_conflict_raises(self, registry):
        registry.counter("x_total", "x")
        with pytest.raises(ParameterError):
            registry.gauge("x_total", "x")

    def test_label_schema_conflict_raises(self, registry):
        registry.counter("x_total", "x", labelnames=("op",))
        with pytest.raises(ParameterError):
            registry.counter("x_total", "x", labelnames=("mode",))

    def test_invalid_name_rejected(self, registry):
        with pytest.raises(ParameterError):
            registry.counter("2bad", "starts with a digit")
        with pytest.raises(ParameterError):
            registry.counter("has-dash", "dashes are invalid")

    def test_unregister_and_contains(self, registry):
        registry.counter("x_total", "x")
        assert "x_total" in registry
        registry.unregister("x_total")
        assert "x_total" not in registry

    def test_concurrent_labels_single_child(self, registry):
        c = registry.counter("x_total", "x", labelnames=("i",))
        seen = []

        def work():
            child = c.labels(i="same")
            child.inc()
            seen.append(child)

        threads = [threading.Thread(target=work) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, seen))) == 1
        assert c.labels(i="same").value == 16


# ----------------------------------------------------------------------
# Exposition rendering
# ----------------------------------------------------------------------
class TestRender:
    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""

    def test_childless_labeled_instrument_skipped(self, registry):
        registry.counter("x_total", "x", labelnames=("op",))
        assert registry.render() == ""

    def test_help_and_type_lines(self, registry):
        registry.counter("x_total", "it counts").inc()
        text = registry.render()
        assert "# HELP x_total it counts\n" in text
        assert "# TYPE x_total counter\n" in text

    def test_integral_values_render_without_decimal(self, registry):
        registry.counter("x_total", "x").inc(3)
        assert "x_total 3\n" in registry.render()

    def test_label_value_escaping_round_trips(self, registry):
        ugly = 'we"ird\\pa\nth'
        c = registry.counter("x_total", "x", labelnames=("path",))
        c.labels(path=ugly).inc()
        text = registry.render()
        # escaped on the wire ...
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert "\n" not in text.split("x_total{", 1)[1].split("}")[0]
        # ... and recovered by the parser
        fams = parse_exposition(text)
        (labels, value), = fams["x_total"].samples.items()
        assert dict(labels)["path"] == ugly
        assert value == 1

    def test_histogram_exposition_shape(self, registry):
        h = registry.histogram("lat_seconds", "latency",
                               buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = registry.render()
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.1"} 1\n' in text
        assert 'lat_seconds_bucket{le="1"} 2\n' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3\n' in text
        assert "lat_seconds_count 3\n" in text
        assert "lat_seconds_sum 5.55" in text

    def test_histogram_exposition_matches_cumulative_loop(self,
                                                          registry):
        """The histogram keeps one count per bucket, found by bisect,
        and accumulates at render time; the reference is the loop it
        replaced (every bound compared on every observation).  Same
        ``_bucket``/``_sum``/``_count`` lines, byte for byte, for a
        seeded sample with values on the bounds, above the last one
        and below the first, observed singly and in batches; a NaN
        lands in no finite bucket, as before."""
        import random

        from repro.telemetry.registry import _format_value

        rng = random.Random(1507)
        bounds = DEFAULT_BUCKETS
        sample = [rng.choice(bounds) for _ in range(40)]
        sample += [rng.uniform(0.0, 12.0) for _ in range(200)]
        sample += [rng.lognormvariate(-6.0, 2.0) for _ in range(200)]
        sample += [0.0, -1.0, bounds[-1], bounds[-1] * 2]
        rng.shuffle(sample)

        h = registry.histogram("lat_seconds", "latency")
        for value in sample[:100]:
            h.observe(value)
        h.observe_many(sample[100:])

        cumulative = [0] * len(bounds)
        total = 0.0
        for value in sample:
            total += value
            for i, bound in enumerate(bounds):
                if value <= bound:
                    cumulative[i] += 1
        want = [f'lat_seconds_bucket{{le="{_format_value(bound)}"}} '
                f'{count}' for bound, count in zip(bounds, cumulative)]
        want += [f'lat_seconds_bucket{{le="+Inf"}} {len(sample)}',
                 f'lat_seconds_sum {_format_value(total)}',
                 f'lat_seconds_count {len(sample)}']
        got = [line for line in registry.render().splitlines()
               if not line.startswith("#")]
        assert got == want
        assert h.cumulative_counts() == cumulative

        h.observe(math.nan)
        assert h.cumulative_counts() == cumulative
        assert h.count == len(sample) + 1

    def test_families_sorted_by_name(self, registry):
        registry.counter("zz_total", "z").inc()
        registry.counter("aa_total", "a").inc()
        text = registry.render()
        assert text.index("aa_total") < text.index("zz_total")


# ----------------------------------------------------------------------
# Exposition parsing (round trip)
# ----------------------------------------------------------------------
class TestParse:
    def test_full_round_trip(self, registry):
        c = registry.counter("req_total", "reqs", labelnames=("op",))
        c.labels(op="route").inc(7)
        registry.gauge("depth", "d").set(3.5)
        h = registry.histogram("lat_seconds", "lat", buckets=(1.0,))
        h.observe(0.5)
        fams = parse_exposition(registry.render())
        assert set(fams) == {"req_total", "depth", "lat_seconds"}
        assert fams["req_total"].kind == "counter"
        assert fams["depth"].kind == "gauge"
        assert fams["lat_seconds"].kind == "histogram"
        assert fams["depth"].samples[()] == 3.5

    def test_histogram_series_folded_into_family(self, registry):
        h = registry.histogram("lat_seconds", "lat", buckets=(1.0,))
        h.observe(0.5)
        fams = parse_exposition(registry.render())
        series = {dict(labels).get("__series__")
                  for labels in fams["lat_seconds"].samples}
        assert series == {"bucket", "sum", "count"}

    def test_malformed_line_raises(self):
        with pytest.raises(ParameterError):
            parse_exposition("not a metric line at all {{{")

    def test_parse_empty_text(self):
        assert parse_exposition("") == {}

    def test_inf_value_round_trips(self, registry):
        registry.gauge("g", "g").set(math.inf)
        fams = parse_exposition(registry.render())
        assert fams["g"].samples[()] == math.inf


def test_default_registry_is_process_global():
    from repro.telemetry import get_registry, set_registry
    default = get_registry()
    assert isinstance(default, MetricsRegistry)
    mine = MetricsRegistry()
    old = set_registry(mine)
    try:
        assert get_registry() is mine
    finally:
        set_registry(old)
    assert get_registry() is default


def test_instrument_classes_exported():
    # the public constructors exist for direct (registry-less) use
    assert Counter is not None and Gauge is not None \
        and Histogram is not None
