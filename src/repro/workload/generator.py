"""Deterministic workload generators for the benchmark harness.

All generators are seeded and pure, so every benchmark run is exactly
reproducible.  Three key domains matching the three shipped extensions:

* ordered scalar keys (B-tree) with uniform / Zipfian / clustered
  distributions and range queries,
* 2-D rectangles (R-tree) with uniform and clustered placement,
* element sets (RD-tree) drawn from a vocabulary with Zipfian element
  popularity.

Operation mixes produce ``Op`` streams the driver executes verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.ext.btree import Interval
from repro.ext.rtree import Rect


@dataclass(frozen=True)
class Op:
    """One operation in a generated workload."""

    kind: str  # "insert" | "delete" | "search" | "multi_put" | "multi_get" | "multi_delete"
    key: object = None
    rid: object = None
    query: object = None
    #: (key, rid) batch for multi_put / multi_delete
    pairs: tuple = ()
    #: key batch for multi_get
    keys: tuple = ()


# ---------------------------------------------------------------------------
# scalar keys
# ---------------------------------------------------------------------------


class ScalarKeys:
    """Seeded scalar-key source over ``[0, key_space)``."""

    def __init__(
        self,
        seed: int,
        key_space: int = 1_000_000,
        distribution: str = "uniform",
        zipf_s: float = 1.2,
        clusters: int = 16,
    ) -> None:
        self._rng = random.Random(seed)
        self.key_space = key_space
        self.distribution = distribution
        self._zipf_s = zipf_s
        self._clusters = clusters
        if distribution not in ("uniform", "zipf", "clustered"):
            raise ValueError(f"unknown distribution {distribution!r}")
        if distribution == "zipf":
            # Precompute a small Zipf CDF over rank buckets; keys inside
            # a bucket are uniform, which is plenty for index skew.
            weights = [1.0 / (rank**zipf_s) for rank in range(1, 1025)]
            total = sum(weights)
            acc, self._cdf = 0.0, []
            for w in weights:
                acc += w / total
                self._cdf.append(acc)

    def next_key(self) -> int:
        """Draw the next key from the configured distribution."""
        if self.distribution == "uniform":
            return self._rng.randrange(self.key_space)
        if self.distribution == "clustered":
            cluster = self._rng.randrange(self._clusters)
            width = self.key_space // self._clusters
            return cluster * width + int(
                abs(self._rng.gauss(0, width / 8)) % width
            )
        # zipf: pick a rank bucket by CDF, then a key within it
        u = self._rng.random()
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        bucket_width = max(1, self.key_space // len(self._cdf))
        return lo * bucket_width + self._rng.randrange(bucket_width)

    def range_query(self, selectivity: float = 0.01) -> Interval:
        """A random interval covering ``selectivity`` of the key space."""
        width = max(1, int(self.key_space * selectivity))
        lo = self._rng.randrange(max(1, self.key_space - width))
        return Interval(lo, lo + width)


class PartitionRoutedKeys:
    """Scalar keys with *partition-aware* placement skew.

    Wraps a cluster :class:`~repro.cluster.router.Router` so workloads
    can control which partition each key lands on, independently of the
    key-value distribution:

    * ``routing="uniform"`` — every partition receives the same share
      of traffic (the balanced baseline),
    * ``routing="zipf"`` — partition popularity is Zipf-skewed
      (partition 0 hottest), making hot-partition imbalance a
      *measurable input* instead of an accident of hashing.

    Keys are drawn from the underlying uniform key space and
    rejection-sampled until the router places them on the drawn target
    partition — so the stream stays deterministic (seeded) and the
    router stays the single source of placement truth.
    """

    def __init__(
        self,
        seed: int,
        router,
        key_space: int = 1_000_000,
        routing: str = "uniform",
        zipf_s: float = 1.2,
        max_rejects: int = 10_000,
    ) -> None:
        if routing not in ("uniform", "zipf"):
            raise ValueError(f"unknown routing {routing!r}")
        self._rng = random.Random(seed)
        self.router = router
        self.key_space = key_space
        self.routing = routing
        self._max_rejects = max_rejects
        weights = [
            1.0 / (rank**zipf_s) for rank in range(1, router.partitions + 1)
        ]
        total = sum(weights)
        self._weights = [w / total for w in weights]

    def next_partition(self) -> int:
        """Draw the next *target* partition from the routing skew."""
        if self.routing == "uniform":
            return self._rng.randrange(self.router.partitions)
        u = self._rng.random()
        acc = 0.0
        for p, w in enumerate(self._weights):
            acc += w
            if u < acc:
                return p
        return self.router.partitions - 1

    def next_key(self) -> int:
        """Draw a key owned by the next target partition."""
        target = self.next_partition()
        for _ in range(self._max_rejects):
            key = self._rng.randrange(self.key_space)
            if self.router.partition_of(key) == target:
                return key
        raise ValueError(  # pragma: no cover - needs a degenerate router
            f"no key for partition {target} in {self._max_rejects} draws"
        )


def partition_histogram(ops: "Sequence[Op]", router) -> list[int]:
    """Per-partition routed-key counts for an op stream.

    Counts every routed key, including the members of batched ops
    (``pairs`` / ``keys``); searches route nowhere (they scatter) and
    are not counted.  The benchmark uses this to report imbalance —
    ``max/mean`` of the returned histogram — under uniform vs
    Zipf-skewed routing.
    """
    counts = [0] * router.partitions
    for op in ops:
        if op.key is not None:
            counts[router.partition_of(op.key)] += 1
        for key, _rid in op.pairs:
            counts[router.partition_of(key)] += 1
        for key in op.keys:
            counts[router.partition_of(key)] += 1
    return counts


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------


class RectKeys:
    """Seeded rectangle source over the unit square."""

    def __init__(
        self,
        seed: int,
        extent: float = 0.01,
        distribution: str = "uniform",
        clusters: int = 12,
    ) -> None:
        self._rng = random.Random(seed)
        self.extent = extent
        self.distribution = distribution
        self._centers = [
            (self._rng.random(), self._rng.random()) for _ in range(clusters)
        ]

    def next_key(self) -> Rect:
        """Draw the next key from the configured distribution."""
        if self.distribution == "clustered":
            cx, cy = self._rng.choice(self._centers)
            x = min(max(self._rng.gauss(cx, 0.03), 0.0), 1.0)
            y = min(max(self._rng.gauss(cy, 0.03), 0.0), 1.0)
        else:
            x, y = self._rng.random(), self._rng.random()
        w = self._rng.random() * self.extent
        h = self._rng.random() * self.extent
        return Rect(x, y, min(x + w, 1.0), min(y + h, 1.0))

    def window_query(self, selectivity: float = 0.01) -> Rect:
        """A random window covering ``selectivity`` of the unit square."""
        side = selectivity**0.5
        x = self._rng.random() * (1.0 - side)
        y = self._rng.random() * (1.0 - side)
        return Rect(x, y, x + side, y + side)


# ---------------------------------------------------------------------------
# sets
# ---------------------------------------------------------------------------


class SetKeys:
    """Seeded set-valued key source (Zipfian element popularity)."""

    def __init__(
        self,
        seed: int,
        vocabulary: int = 500,
        set_size: int = 5,
        zipf_s: float = 1.1,
    ) -> None:
        self._rng = random.Random(seed)
        self.vocabulary = vocabulary
        self.set_size = set_size
        weights = [1.0 / (rank**zipf_s) for rank in range(1, vocabulary + 1)]
        self._population = list(range(vocabulary))
        self._weights = weights

    def next_key(self) -> frozenset:
        """Draw the next key from the configured distribution."""
        size = max(1, int(self._rng.gauss(self.set_size, 1)))
        return frozenset(
            self._rng.choices(self._population, self._weights, k=size)
        )

    def overlap_query(self, probe_size: int = 2) -> frozenset:
        """A random probe set for overlap queries."""
        return frozenset(
            self._rng.choices(self._population, self._weights, k=probe_size)
        )


# ---------------------------------------------------------------------------
# operation mixes
# ---------------------------------------------------------------------------


@dataclass
class MixSpec:
    """Fractions of each operation kind (must sum to 1).

    The ``multi_*`` fractions emit *batched* operations — each op
    carries a whole key batch and counts as one drawn operation.
    """

    insert: float = 0.5
    search: float = 0.5
    delete: float = 0.0
    multi_put: float = 0.0
    multi_get: float = 0.0
    multi_delete: float = 0.0

    def __post_init__(self) -> None:
        total = (
            self.insert
            + self.search
            + self.delete
            + self.multi_put
            + self.multi_get
            + self.multi_delete
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix fractions sum to {total}, expected 1")


class ScalarWorkload:
    """A reproducible stream of operations over scalar keys.

    Deletions target previously inserted pairs, so a generated stream is
    always executable; rids are unique across the stream.
    """

    def __init__(
        self,
        seed: int,
        mix: MixSpec | None = None,
        key_space: int = 1_000_000,
        distribution: str = "uniform",
        selectivity: float = 0.005,
        batch_size: int = 16,
        key_source=None,
    ) -> None:
        #: ``key_source`` overrides the default :class:`ScalarKeys` —
        #: pass a :class:`PartitionRoutedKeys` to give the stream
        #: partition-aware placement skew
        self.keys = key_source or ScalarKeys(seed, key_space, distribution)
        self._rng = random.Random(seed ^ 0x5EED)
        self.mix = mix or MixSpec()
        self.selectivity = selectivity
        self.batch_size = batch_size
        self._live: list[tuple[int, str]] = []
        self._counter = 0

    def ops(self, count: int) -> Iterator[Op]:
        """A finite stream of ``count`` operations."""
        for _ in range(count):
            yield self.next_op()

    def _fresh_pairs(self, count: int) -> list[tuple[int, str]]:
        pairs = []
        for _ in range(count):
            key = self.keys.next_key()
            self._counter += 1
            rid = f"r{self._counter}"
            self._live.append((key, rid))
            pairs.append((key, rid))
        return pairs

    def next_op(self) -> Op:
        """Draw the next operation of the mix."""
        mix = self.mix
        u = self._rng.random()
        if u < mix.insert or not self._live:
            (pair,) = self._fresh_pairs(1)
            return Op("insert", key=pair[0], rid=pair[1])
        u -= mix.insert
        if u < mix.delete:
            idx = self._rng.randrange(len(self._live))
            key, rid = self._live.pop(idx)
            return Op("delete", key=key, rid=rid)
        u -= mix.delete
        if u < mix.multi_put:
            return Op(
                "multi_put", pairs=tuple(self._fresh_pairs(self.batch_size))
            )
        u -= mix.multi_put
        if u < mix.multi_get:
            count = min(self.batch_size, len(self._live))
            sample = self._rng.sample(self._live, count)
            return Op("multi_get", keys=tuple(key for key, _ in sample))
        u -= mix.multi_get
        if u < mix.multi_delete:
            count = min(self.batch_size, len(self._live))
            pairs = []
            for _ in range(count):
                idx = self._rng.randrange(len(self._live))
                pairs.append(self._live.pop(idx))
            return Op("multi_delete", pairs=tuple(pairs))
        return Op("search", query=self.keys.range_query(self.selectivity))

    def preload(self, count: int) -> list[Op]:
        """Pure-insert prefix used to build the initial tree."""
        out = []
        for _ in range(count):
            key = self.keys.next_key()
            self._counter += 1
            rid = f"r{self._counter}"
            self._live.append((key, rid))
            out.append(Op("insert", key=key, rid=rid))
        return out


def partition_ops(
    ops: Sequence[Op], workers: int
) -> list[list[Op]]:
    """Round-robin an op stream across workers (stable, deterministic)."""
    buckets: list[list[Op]] = [[] for _ in range(workers)]
    for i, op in enumerate(ops):
        buckets[i % workers].append(op)
    return buckets


class PoissonArrivals:
    """Open-loop arrival schedule: Poisson process at ``rate`` ops/sec.

    A closed-loop client's offered rate degenerates to the server's
    service rate (it waits for each response before sending the next),
    so it can never push a server past saturation.  Driving overload
    honestly requires an *open-loop* schedule fixed in advance:
    exponential inter-arrival gaps with mean ``1/rate``, which is a
    Poisson process — the standard memoryless model of independent
    client arrivals.

    The schedule is fully determined by ``(rate, duration, seed)``:
    same inputs, same offsets, so benchmark runs are reproducible op
    for op.  ``offsets()`` yields seconds relative to the epoch the
    load generator chooses (its own start time).
    """

    def __init__(
        self, rate: float, duration: float, seed: int = 0
    ) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.rate = rate
        self.duration = duration
        self.seed = seed

    def offsets(self) -> "list[float]":
        """Arrival offsets in ``[0, duration)``, ascending."""
        rng = random.Random(self.seed)
        out: list[float] = []
        t = rng.expovariate(self.rate)
        while t < self.duration:
            out.append(t)
            t += rng.expovariate(self.rate)
        return out

    def schedule(self, ops: "Sequence[object]") -> "list[tuple]":
        """Zip ``ops`` onto the arrival offsets.

        Returns ``[(offset, *op), ...]`` — with ``(method, payload)``
        ops this is exactly the open-loop load generator's input.
        Stops at whichever runs out first (arrivals or ops); the
        caller sizes ``ops`` to ``rate * duration`` plus slack when
        it wants the full window covered.
        """
        return [
            (offset,) + tuple(op)
            for offset, op in zip(self.offsets(), ops)
        ]
