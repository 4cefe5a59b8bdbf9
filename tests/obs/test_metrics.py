"""Unit tests for the metrics registry: counters, gauges, histograms.

The contract under test is the one DESIGN.md's "Observability" section
documents: exact sharded counters, fixed-bucket histograms with
interpolated percentiles, gauges evaluated at snapshot time, dotted
names nesting in the snapshot, and a disabled registry whose every
instrument is a shared no-op.
"""

import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_NS_BUCKETS,
    Counter,
    Histogram,
    LatchTimer,
    MetricsRegistry,
)


class TestCounter:
    def test_single_thread_increments(self):
        c = Counter("c")
        for _ in range(10):
            c.inc()
        c.inc(5)
        assert c.value == 15

    def test_concurrent_increments_sum_exactly(self):
        """8 threads x 10k increments lose nothing (per-thread shards)."""
        c = Counter("c")
        per_thread = 10_000
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8 * per_thread

    def test_finished_thread_contribution_survives(self):
        c = Counter("c")
        t = threading.Thread(target=lambda: c.inc(7))
        t.start()
        t.join()
        assert c.value == 7


class TestHistogramBuckets:
    def test_bucket_boundaries_are_inclusive_upper(self):
        """Bucket i holds bounds[i-1] < v <= bounds[i]."""
        h = Histogram("h", bounds=(10, 20, 30))
        for v in (10, 11, 20, 21, 30, 31, 1000):
            h.record(v)
        counts, total, _, lo, hi = h._merged()
        #             <=10  <=20  <=30  overflow
        assert counts == [1, 2, 2, 2]
        assert total == 7
        assert lo == 10 and hi == 1000

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10, 10, 20))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(20, 10))

    def test_default_bounds_are_the_ns_scale(self):
        h = Histogram("h")
        assert h.bounds == DEFAULT_NS_BUCKETS


class TestHistogramPercentiles:
    def test_identical_values_collapse_to_that_value(self):
        h = Histogram("h", bounds=(10, 100))
        for _ in range(50):
            h.record(5)
        # interpolation would say 7.5; clamping to [min, max] fixes it
        assert h.percentile(0.5) == 5.0
        assert h.percentile(0.99) == 5.0

    def test_two_cluster_distribution(self):
        h = Histogram("h", bounds=(10, 100))
        for _ in range(50):
            h.record(5)
        for _ in range(50):
            h.record(50)
        # p50 lands at the top of the first bucket
        assert h.percentile(0.50) == pytest.approx(10.0)
        # p95: 45/50 through the second bucket [10, 100), clamped at 50
        assert h.percentile(0.95) == pytest.approx(50.0)

    def test_interpolation_inside_bucket(self):
        h = Histogram("h", bounds=(0, 100))
        for v in range(1, 101):
            h.record(v)
        # all 100 values in bucket (0, 100]: p50 interpolates to 50
        assert h.percentile(0.50) == pytest.approx(50.0)
        assert h.percentile(0.95) == pytest.approx(95.0)

    def test_overflow_bucket_interpolates_toward_max(self):
        h = Histogram("h", bounds=(10,))
        h.record(1000)
        assert h.percentile(0.99) == pytest.approx(1000.0)

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.percentile(0.5) == 0.0
        snap = h.snapshot()
        assert snap == {
            "count": 0,
            "sum": 0,
            "min": 0,
            "max": 0,
            "avg": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_snapshot_aggregates(self):
        h = Histogram("h", bounds=(10, 100))
        for v in (2, 4, 6):
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == 12
        assert snap["min"] == 2
        assert snap["max"] == 6
        assert snap["avg"] == pytest.approx(4.0)


class TestHistogramConcurrency:
    def test_concurrent_records_sum_exactly(self):
        h = Histogram("h", bounds=(10, 100))
        per_thread = 5_000
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for i in range(per_thread):
                h.record(i % 150)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 8 * per_thread

    def test_snapshot_while_mutating(self):
        """Snapshots taken mid-run are stale-but-consistent, never corrupt."""
        registry = MetricsRegistry()
        c = registry.counter("c")
        h = registry.histogram("h", bounds=(10, 100))
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                c.inc()
                h.record(7)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            last_count = 0
            for _ in range(50):
                snap = registry.snapshot()
                assert snap["c"] >= last_count  # monotonic
                last_count = snap["c"]
                hsnap = snap["h"]
                assert 0 <= hsnap["count"]
                assert hsnap["min"] in (0, 7) and hsnap["max"] in (0, 7)
        finally:
            stop.set()
            for t in threads:
                t.join()


class TestRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_nested_snapshot_along_dotted_names(self):
        registry = MetricsRegistry()
        registry.counter("buffer.hits").inc(3)
        registry.histogram("latch.wait_ns").record(500)
        registry.gauge("txn.active", lambda: 2)
        snap = registry.snapshot()
        assert snap["buffer"]["hits"] == 3
        assert snap["latch"]["wait_ns"]["count"] == 1
        assert snap["txn"]["active"] == 2

    def test_gauge_errors_surface_as_none(self):
        registry = MetricsRegistry()
        registry.gauge("g", lambda: 1 / 0)
        assert registry.snapshot()["g"] is None

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        parsed = json.loads(registry.to_json())
        assert parsed["a"]["b"] == 1

    def test_counter_value_helper(self):
        registry = MetricsRegistry()
        assert registry.counter_value("nope") == 0
        registry.counter("c").inc(4)
        assert registry.counter_value("c") == 4


class TestDisabledRegistry:
    def test_all_instruments_are_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        c1, c2 = registry.counter("a"), registry.counter("b")
        assert c1 is c2  # one shared null object
        c1.inc(100)
        assert c1.value == 0
        h = registry.histogram("h")
        h.record(123)
        assert h.count == 0

    def test_snapshot_is_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc()
        registry.gauge("g", lambda: 1)
        assert registry.snapshot() == {}


class TestLatchTimer:
    def test_sampling_and_batched_counting(self):
        registry = MetricsRegistry()
        timer = LatchTimer(registry)
        n = timer.SAMPLE_EVERY
        # one full cycle: exactly one sampled acquisition, counted in
        # one batch of SAMPLE_EVERY
        decisions = [timer.sample() for _ in range(n)]
        assert decisions.count(True) == 1
        assert timer.acquisitions.value == n
        # a partial cycle is not yet counted (trails by < SAMPLE_EVERY)
        for _ in range(n - 1):
            timer.sample()
        assert timer.acquisitions.value == n
        timer.sample()
        assert timer.acquisitions.value == 2 * n
