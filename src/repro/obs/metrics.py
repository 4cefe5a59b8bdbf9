"""Thread-safe metrics: counters, gauges and fixed-bucket histograms.

The registry is the measurement substrate for every subsystem (latches,
locks, buffer pool, WAL, trees): all of them register named instruments
here, and :meth:`MetricsRegistry.snapshot` assembles one nested dict the
benchmarks, ``tools/inspect.dump_stats`` and the JSON exporter consume.

Design constraints (see ISSUE 1 / DESIGN.md "Observability"):

* **Update cost** — a metric update on the hot path must be a plain
  ``+=`` with no shared lock: counters and histograms keep *per-thread
  shards* (one small object per thread, registered once), and the only
  synchronization is at shard registration and at snapshot time.  Under
  the GIL a concurrent ``shard.value += n`` against a snapshot read is
  safe; the snapshot may be a few increments stale, never corrupt.
* **Stable names** — instruments are addressed by dotted names
  (``buffer.hits``, ``latch.wait_ns``, ``gist.restarts.nsn_mismatch``)
  that form a public contract; the snapshot nests along the dots.
* **Disablable** — a registry built with ``enabled=False`` hands out
  shared null instruments whose updates are no-ops, so the whole layer
  can be measured against its own absence
  (``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Callable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatchTimer",
    "MetricsRegistry",
    "DEFAULT_NS_BUCKETS",
    "merge_snapshots",
]

#: Default histogram bucket upper bounds, in nanoseconds: half-decade
#: steps from 1 µs to 10 s (an overflow bucket catches the rest).
DEFAULT_NS_BUCKETS: tuple[int, ...] = (
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    10_000_000_000,
)


class _CounterShard:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class Counter:
    """A monotonic counter with per-thread shards.

    ``inc`` touches only the calling thread's shard (a plain ``+=``);
    ``value`` merges all shards under the registration lock.  Shards of
    finished threads stay registered, so their contribution survives.
    """

    __slots__ = ("name", "_local", "_lock", "_shards")

    def __init__(self, name: str) -> None:
        self.name = name
        self._local = threading.local()
        self._lock = threading.Lock()
        self._shards: list[_CounterShard] = []

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (thread-safe, no shared lock on the hot path)."""
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._register_shard()
        shard.value += amount

    def _register_shard(self) -> _CounterShard:
        shard = _CounterShard()
        with self._lock:
            self._shards.append(shard)
        self._local.shard = shard
        return shard

    @property
    def value(self) -> int:
        """Merged total across every thread's shard."""
        with self._lock:
            return sum(shard.value for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class _NullCounter(Counter):
    """Shared no-op counter handed out by disabled registries."""

    def inc(self, amount: int = 1) -> None:  # noqa: ARG002
        return


class Gauge:
    """A point-in-time value, read through a callable at snapshot time."""

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], object]) -> None:
        self.name = name
        self._fn = fn

    @property
    def value(self) -> object:
        """Evaluate the gauge; errors surface as ``None``, never raise."""
        try:
            return self._fn()
        except Exception:
            return None  # lint: allow(swallowed-fault): gauges never raise by contract


class _HistShard:
    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, nbuckets: int) -> None:
        self.counts = [0] * nbuckets
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None


class Histogram:
    """A fixed-bucket latency histogram with per-thread shards.

    Bucket ``i`` holds values ``bounds[i-1] < v <= bounds[i]``; one
    overflow bucket past the last bound catches the rest.  Percentiles
    are estimated by linear interpolation inside the covering bucket
    (the overflow bucket interpolates toward the observed maximum).
    """

    __slots__ = ("name", "bounds", "_local", "_lock", "_shards")

    def __init__(
        self, name: str, bounds: Sequence[int] = DEFAULT_NS_BUCKETS
    ) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = tuple(bounds)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._shards: list[_HistShard] = []

    def record(self, value: float) -> None:
        """Record one observation (thread-safe, lock-free fast path)."""
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._register_shard()
        shard.counts[bisect_left(self.bounds, value)] += 1
        shard.count += 1
        shard.sum += value
        if shard.min is None or value < shard.min:
            shard.min = value
        if shard.max is None or value > shard.max:
            shard.max = value

    def _register_shard(self) -> _HistShard:
        shard = _HistShard(len(self.bounds) + 1)
        with self._lock:
            self._shards.append(shard)
        self._local.shard = shard
        return shard

    # ------------------------------------------------------------------
    # merged views
    # ------------------------------------------------------------------
    def _merged(self) -> tuple[list[int], int, float, float, float]:
        with self._lock:
            shards = list(self._shards)
        counts = [0] * (len(self.bounds) + 1)
        total = 0
        total_sum = 0
        lo = hi = None
        for shard in shards:
            for i, c in enumerate(shard.counts):
                counts[i] += c
            total += shard.count
            total_sum += shard.sum
            if shard.min is not None and (lo is None or shard.min < lo):
                lo = shard.min
            if shard.max is not None and (hi is None or shard.max > hi):
                hi = shard.max
        return counts, total, total_sum, lo or 0, hi or 0

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return self._merged()[1]

    def percentile(self, q: float) -> float:
        """Estimate the q-quantile (0 < q <= 1) from the bucket counts."""
        counts, total, _, lo_seen, hi_seen = self._merged()
        return self._percentile_from(counts, total, q, lo_seen, hi_seen)

    def _percentile_from(
        self,
        counts: list[int],
        total: int,
        q: float,
        lo_seen: float,
        hi_seen: float,
    ) -> float:
        if total == 0:
            return 0.0
        target = q * total
        cum = 0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            prev = cum
            cum += c
            if cum >= target:
                lo = self.bounds[i - 1] if i > 0 else lo_seen
                hi = self.bounds[i] if i < len(self.bounds) else hi_seen
                fraction = (target - prev) / c
                value = lo + fraction * (hi - lo)
                return float(min(max(value, lo_seen), hi_seen))
        return float(hi_seen)

    def snapshot(self) -> dict:
        """Count, sum, min/max/avg and p50/p95/p99 as one dict."""
        counts, total, total_sum, lo, hi = self._merged()
        if total == 0:
            return {
                "count": 0,
                "sum": 0,
                "min": 0,
                "max": 0,
                "avg": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
        return {
            "count": total,
            "sum": total_sum,
            "min": lo,
            "max": hi,
            "avg": total_sum / total,
            "p50": self._percentile_from(counts, total, 0.50, lo, hi),
            "p95": self._percentile_from(counts, total, 0.95, lo, hi),
            "p99": self._percentile_from(counts, total, 0.99, lo, hi),
        }


class _NullHistogram(Histogram):
    """Shared no-op histogram handed out by disabled registries."""

    def record(self, value: float) -> None:  # noqa: ARG002
        return


class LatchTimer:
    """The instrument bundle a latch (or a family of latches) records
    into: acquisition count plus wait-time and hold-time histograms.

    Built over a registry so every frame latch of a buffer pool shares
    one ``latch.*`` family; :class:`~repro.sync.latch.SXLatch` only sees
    this narrow object, keeping ``sync`` free of an ``obs`` dependency.

    Latch acquisitions are the hottest instrumented path in the system
    (every pin/fix pair goes through two of them), so everything is
    sampled: :meth:`sample` admits one acquisition in ``SAMPLE_EVERY``
    to the clock reads and histogram records, and the acquisition
    counter is bumped in the same batches (``inc(SAMPLE_EVERY)`` once
    per cycle), so ``latch.acquisitions`` counts acquisition *attempts*
    and may trail the truth by up to ``SAMPLE_EVERY - 1`` per timer.
    Exact per-latch counts stay available on
    :attr:`repro.sync.latch.SXLatch.acquisitions`.  The tick is bumped
    without a lock; under the GIL a lost increment merely shifts the
    sampling phase.
    """

    __slots__ = ("acquisitions", "wait_ns", "hold_ns", "_tick")

    #: timing sample rate — 1 in this many acquisitions is timed
    SAMPLE_EVERY = 16

    def __init__(
        self, registry: "MetricsRegistry", prefix: str = "latch"
    ) -> None:
        self.acquisitions = registry.counter(f"{prefix}.acquisitions")
        self.wait_ns = registry.histogram(f"{prefix}.wait_ns")
        self.hold_ns = registry.histogram(f"{prefix}.hold_ns")
        self._tick = 0

    def sample(self) -> bool:
        """True when this acquisition should be timed.

        Also counts: each full cycle through the tick adds
        ``SAMPLE_EVERY`` to the acquisitions counter, batching the
        registry work the same way the timing is batched.
        """
        tick = self._tick = (self._tick + 1) % self.SAMPLE_EVERY
        if tick == 0:
            self.acquisitions.inc(self.SAMPLE_EVERY)
            return True
        return False


_NULL_COUNTER = _NullCounter("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Named counters, gauges and histograms with a nested snapshot.

    Instruments are created on first request (``counter(name)`` is
    get-or-create), so independent subsystems can share one family by
    using the same dotted name.  A disabled registry (``enabled=False``)
    hands out shared null instruments and snapshots empty — the
    baseline of the registry's call budget in
    ``tests/obs/test_overhead.py``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument creation (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on demand)."""
        if not self.enabled:
            return _NULL_COUNTER
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def histogram(
        self, name: str, bounds: Sequence[int] = DEFAULT_NS_BUCKETS
    ) -> Histogram:
        """The histogram registered under ``name`` (created on demand)."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(name, bounds)
            return hist

    def gauge(self, name: str, fn: Callable[[], object]) -> Gauge:
        """Register (or replace) a gauge evaluated at snapshot time."""
        gauge = Gauge(name, fn)
        if not self.enabled:
            return gauge
        with self._lock:
            self._gauges[name] = gauge
        return gauge

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All instruments as one nested dict, keyed along dotted names.

        Safe to call while every counter and histogram is being mutated:
        values may trail in-flight increments but are never corrupt.
        """
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
            gauges = list(self._gauges.values())
        out: dict = {}
        for counter in counters:
            _assign(out, counter.name, counter.value)
        for hist in histograms:
            _assign(out, hist.name, hist.snapshot())
        for gauge in gauges:
            _assign(out, gauge.name, gauge.value)
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        """The snapshot serialized as JSON (for BENCH_*.json artifacts)."""
        return json.dumps(self.snapshot(), indent=indent, default=str)

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 if never registered)."""
        with self._lock:
            counter = self._counters.get(name)
        return counter.value if counter is not None else 0


def _assign(tree: dict, dotted: str, value: object) -> None:
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = node[part] = {}
        node = nxt
    node[parts[-1]] = value


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Sum a sequence of nested metric snapshots into one aggregate.

    The cluster front end gathers one ``db.metrics.snapshot()`` per
    partition worker; this folds them into a single cluster-wide view:
    numeric leaves are summed, nested dicts are merged recursively, and
    non-numeric leaves (labels, paths) keep the first value seen.
    Booleans are deliberately *not* treated as numbers — summing flags
    across partitions would manufacture meaningless counts.
    """
    out: dict = {}
    for snap in snapshots:
        _merge_into(out, snap)
    return out


def _merge_into(target: dict, source: dict) -> None:
    for key, value in source.items():
        if isinstance(value, dict):
            node = target.get(key)
            if not isinstance(node, dict):
                node = target[key] = {}
            _merge_into(node, value)
        elif isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            prior = target.get(key, 0)
            if isinstance(prior, (int, float)) and not isinstance(
                prior, bool
            ):
                target[key] = prior + value
            else:
                target[key] = value
        else:
            target.setdefault(key, value)
