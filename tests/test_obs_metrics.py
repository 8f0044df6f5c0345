"""Unit tests for the observability primitives and the trace exporter.

Covers the instrument types (counter / gauge / log-bucketed histogram),
registry interning and snapshots, configuration validation, and the
Chrome trace-event rendering of a snapshot.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import ObservabilityConfig, chrome_trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def registry(clock):
    return MetricsRegistry(clock, ObservabilityConfig(enabled=True))


class TestConfig:
    def test_defaults_disabled(self):
        assert ObservabilityConfig().enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_every": 0},
            {"timeseries_cadence_s": 0.0},
            {"timeseries_points": 0},
            {"slow_op_threshold_s": 0.0},
            {"slow_op_threshold_s": -1.0},
            {"timeseries_cadence_s": -1.0},
            {"flight_ring": 0},
            {"bucket_count": 0},
            {"bucket_count": 1000},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(**kwargs)

    def test_none_threshold_disables_slow_capture(self):
        config = ObservabilityConfig(slow_op_threshold_s=None)
        assert config.slow_op_threshold_s is None


class TestCounter:
    def test_inc_and_timestamp(self, clock):
        counter = Counter("c", (), clock)
        clock.now = 2.5
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.updated_at == 2.5

    def test_negative_increment_rejected(self, clock):
        with pytest.raises(ValueError):
            Counter("c", (), clock).inc(-1)

    def test_set_total_is_monotone(self, clock):
        counter = Counter("c", (), clock)
        counter.set_total(10)
        counter.set_total(10)
        with pytest.raises(ValueError):
            counter.set_total(9)
        assert counter.value == 10


class TestGauge:
    def test_set_overwrites_and_stamps(self, clock):
        gauge = Gauge("g", (), clock)
        gauge.set(7)
        clock.now = 1.5
        gauge.set(4)
        assert gauge.value == 4
        assert gauge.updated_at == 1.5


class TestHistogram:
    def make(self, clock, floor=1e-6, base=2.0, count=8):
        return Histogram("h", (), clock, floor, base, count)

    def test_bucket_placement(self, clock):
        hist = self.make(clock)
        hist.observe(0.0)        # at/below the floor -> bucket 0
        hist.observe(1e-6)       # exactly the floor -> bucket 0
        hist.observe(3e-6)       # (2us, 4us) -> bucket 2
        hist.observe(1.0)        # beyond the last edge -> overflow
        assert hist.buckets[0] == 2
        assert hist.buckets[2] == 1
        assert hist.buckets[-1] == 1
        assert hist.count == 4

    def test_a_value_on_an_edge_counts_under_that_edge(self, clock):
        """Buckets are upper-inclusive: an observation equal to an edge
        counts under that edge."""
        hist = self.make(clock)
        edges = hist.bucket_edges()
        for edge in edges[:-1]:
            hist.observe(edge)
        assert hist.buckets == [1] * (len(edges) - 1) + [0]

    @given(
        value=st.floats(min_value=0.0, allow_nan=False, exclude_min=True),
        floor=st.sampled_from([1e-7, 1e-6, 0.5]),
        base=st.sampled_from([1.5, 2.0, 10.0]),
        count=st.integers(min_value=1, max_value=40),
    )
    def test_bucket_hit_is_bisect_left_of_the_edges(self, value, floor, base, count):
        hist = Histogram("h", (), FakeClock(), floor, base, count)
        hist.observe(value)
        expected = min(bisect_left(hist.bucket_edges(), value), count)
        assert hist.buckets[expected] == 1
        assert sum(hist.buckets) == 1

    def test_edges_are_geometric_and_inf_terminated(self, clock):
        hist = self.make(clock, floor=1e-6, base=2.0, count=4)
        edges = hist.bucket_edges()
        assert edges[:3] == pytest.approx([1e-6, 2e-6, 4e-6])
        assert math.isinf(edges[-1])
        assert len(edges) == len(hist.buckets)

    def test_stats_and_quantiles(self, clock):
        hist = self.make(clock)
        for value in (1e-6, 2e-6, 4e-6, 8e-6):
            hist.observe(value)
        assert hist.min == 1e-6
        assert hist.max == 8e-6
        assert hist.mean == pytest.approx(3.75e-6)
        assert hist.quantile(0.0) <= hist.quantile(0.5) <= hist.quantile(1.0)
        assert hist.quantile(1.0) <= hist.max

    def test_quantile_zero_skips_leading_empty_buckets(self, clock):
        """q=0 answers from the first non-empty bucket, never from an empty
        bucket below the smallest observation."""
        hist = Histogram("h", (), clock, 1e-7, 2.0, 40)
        hist.observe(5e-6)
        hist.observe(7e-6)
        assert hist.min <= hist.quantile(0.0) <= hist.quantile(0.5)
        # (3.2us, 6.4us] holds the minimum: its upper edge is the answer.
        assert hist.quantile(0.0) == pytest.approx(6.4e-6)

    def test_quantile_bounds_checked(self, clock):
        with pytest.raises(ValueError):
            self.make(clock).quantile(1.5)
        with pytest.raises(ValueError):
            self.make(clock).quantile(-0.01)
        # The domain edges themselves are legal.
        empty = self.make(clock)
        assert empty.quantile(0.0) == 0.0
        assert empty.quantile(1.0) == 0.0

    def test_quantiles_monotone_across_the_summary_points(self, clock):
        """p50 <= p90 <= p99 <= p999 <= max, for an arbitrary spread."""
        hist = self.make(clock, count=24)
        for i in range(200):
            hist.observe(1e-6 * (1.17 ** (i % 37)))
        summary = hist.summary()
        assert (
            summary["p50"] <= summary["p90"] <= summary["p99"]
            <= summary["p999"] <= hist.max
        )

    def test_summary_matches_quantiles(self, clock):
        hist = self.make(clock)
        for value in (1e-6, 2e-6, 4e-6, 8e-6):
            hist.observe(value)
        summary = hist.summary()
        assert set(summary) == {"mean", "p50", "p90", "p99", "p999"}
        assert summary["mean"] == hist.mean
        for key, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99),
                       ("p999", 0.999)):
            assert summary[key] == hist.quantile(q)

    def test_as_dict_carries_the_extended_percentiles(self, clock):
        hist = self.make(clock)
        hist.observe(2e-6)
        rendered = hist.as_dict()
        assert "p90" in rendered and "p999" in rendered

    def test_as_dict_is_json_safe(self, clock):
        hist = self.make(clock)
        hist.observe(5.0)  # lands in the +Inf overflow bucket
        rendered = json.dumps(hist.as_dict())
        assert "+Inf" in rendered
        assert "Infinity" not in rendered


class TestRegistry:
    def test_interning_returns_same_object(self, registry):
        a = registry.counter("x", server=1)
        b = registry.counter("x", server=1)
        assert a is b
        assert registry.counter("x", server=2) is not a

    def test_label_order_does_not_matter(self, registry):
        a = registry.counter("x", a=1, b=2)
        b = registry.counter("x", b=2, a=1)
        assert a is b

    def test_type_mismatch_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x")

    def test_snapshot_deterministic_order(self, registry, clock):
        registry.counter("b")
        registry.counter("a", z=1)
        registry.gauge("a", y=2)
        clock.now = 1.25
        snap = registry.snapshot()
        assert snap["sim_time"] == 1.25
        names = [(m["name"], tuple(sorted(m["labels"].items()))) for m in snap["metrics"]]
        assert names == sorted(names)

    def test_instruments_stamped_with_sim_clock(self, registry, clock):
        counter = registry.counter("c")
        clock.now = 9.0
        counter.inc()
        assert counter.updated_at == 9.0


def _sample_snapshot(clock):
    registry = MetricsRegistry(clock, ObservabilityConfig(enabled=True))
    registry.counter("nam_verbs_total", verb="read", server=0).inc(3)
    registry.gauge("nam_rpc_queue_length", server=0).set(2)
    hist = registry.histogram("nam_verb_latency_seconds", verb="read", server=0)
    for value in (1e-6, 3e-6, 2.0):
        hist.observe(value)
    snap = registry.snapshot()
    snap["sampled_spans"] = [
        {
            "op_id": 1,
            "kind": "op",
            "name": "point",
            "client_id": 4,
            "started_at": 0.001,
            "finished_at": 0.002,
            "verbs": [
                {
                    "verb": "read",
                    "server_id": 0,
                    "payload_bytes": 1024,
                    "started_at": 0.001,
                    "finished_at": 0.0015,
                    "local": False,
                    "batch_id": None,
                }
            ],
            "children": [
                {
                    "op_id": 1,
                    "kind": "descend",
                    "name": "level_1",
                    "client_id": 4,
                    "started_at": 0.0015,
                    "finished_at": 0.002,
                    "verbs": [],
                    "children": [],
                }
            ],
        }
    ]
    snap["slow_spans"] = []
    snap["ops_observed"] = 1
    return snap


class TestExporters:
    def test_chrome_trace_emits_timeseries_counter_events(self, clock):
        snap = _sample_snapshot(clock)
        snap["timeseries"] = [
            {
                "name": "rpc_queue_len",
                "labels": {"server": "1"},
                "points": [[0.001, 2.0], [0.002, 3.0]],
            }
        ]
        document = chrome_trace(snap)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 2
        assert all(e["pid"] == 1 for e in counters)
        assert [e["args"]["value"] for e in counters] == [2.0, 3.0]
        assert len(document["traceEvents"]) == 5

    def test_json_round_trip(self, clock):
        """The snapshot dict is the JSON format: it survives a strict JSON
        round trip unchanged (lists, not tuples; "+Inf", not Infinity)."""
        snap = _sample_snapshot(clock)
        text = json.dumps(snap, allow_nan=False, sort_keys=True)
        assert json.loads(text) == snap

    def test_chrome_trace_round_trip(self, clock):
        document = chrome_trace(_sample_snapshot(clock))
        events = document["traceEvents"]
        # Root span + child span + one verb event.
        assert len(events) == 3
        assert all(event["ph"] == "X" for event in events)
        assert {event["tid"] for event in events} == {1}
        assert json.loads(json.dumps(document)) == document

    def test_chrome_trace_dedups_sampled_and_slow(self, clock):
        snap = _sample_snapshot(clock)
        snap["slow_spans"] = snap["sampled_spans"]  # same op in both lists
        document = chrome_trace(snap)
        assert len(document["traceEvents"]) == 3
