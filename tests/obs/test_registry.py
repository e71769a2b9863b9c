"""Metrics registry: counters, gauges, histograms, kind safety."""

import math

import numpy as np
import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.to_dict() == 5


class TestGauge:
    def test_tracks_value_and_high_water(self):
        g = Gauge()
        g.set(3)
        g.set(10)
        g.set(2)
        assert g.value == 2
        assert g.high_water == 10

    def test_to_dict(self):
        g = Gauge()
        g.set(7)
        assert g.to_dict() == {"value": 7, "high_water": 7}


class TestHistogram:
    def test_observe_counts_and_extremes(self):
        h = Histogram()
        for v in (1.0, 3.0, 100.0):
            h.observe(v)
        assert h.count == 3
        assert h.max == 100.0
        assert h.mean == pytest.approx(104.0 / 3)

    def test_log2_bucketing(self):
        h = Histogram()
        h.observe(0.5)      # below 1 -> first bucket
        h.observe(3.0)      # -> bucket bound 4
        h.observe(10 ** 9)  # beyond last bound -> "inf"
        buckets = h.to_dict()["buckets"]
        assert buckets["1"] == 1
        assert buckets["4"] == 1
        assert buckets["inf"] == 1

    def test_to_dict_skips_empty_buckets(self):
        h = Histogram()
        h.observe(2.0)
        assert list(h.to_dict()["buckets"]) == ["2"]

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.to_dict()["count"] == 0


#: Each bucket bound, just above it and between bounds, and the overflow.
EDGES = [0.0, 0.5, 1.0, math.nextafter(1.0, 2.0), 2.0, 3.0, 2.0 ** 20,
         math.nextafter(2.0 ** 20, math.inf), 1e9]


def observed(values) -> Histogram:
    h = Histogram()
    for value in values:
        h.observe(value)
    return h


class TestHistogramOf:
    """``Histogram.of`` builds what ``observe`` does one value at a time."""

    @pytest.mark.parametrize(
        "values", [[], EDGES, EDGES[::-1] * 3] + [[v] for v in EDGES],
        ids=repr)
    def test_of_is_observe_in_turn(self, values):
        want = observed(values)
        for given in (values, np.array(values, dtype=float)):
            got = Histogram.of(given)
            assert got == want
            assert got.to_dict() == want.to_dict()

    def test_total_is_the_sequential_sum(self):
        values = [1e16] + [1.0] * 4
        assert math.fsum(values) == 1e16 + 4
        got = Histogram.of(values)
        assert got.total == 1e16 == observed(values).total
        assert got.count == 5 and got.max == 1e16


class TestRegistry:
    def test_accessors_create_and_reuse(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_to_dict_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc()
        reg.counter("alpha").inc(2)
        assert list(reg.to_dict()) == ["alpha", "zeta"]
