"""What a tree reports about its operations: the ``gist.*`` counters
(:class:`TreeStats`) and the span/timer/histogram envelope every public
operation runs inside (:class:`OpEnvelope`).  No protocol lives here.
"""

from __future__ import annotations

import threading
from time import perf_counter_ns
from typing import TYPE_CHECKING

from repro.errors import StorageFaultError
from repro.obs.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gist.tree import GiST


class TreeStats:
    """Operation counters exposed to the benchmark harness.

    Dual-homed: the tree keeps its own plain-int counters (what tests
    and the harness read as ``tree.stats.splits``) and mirrors every
    bump into shared ``gist.*`` counters on the database's metrics
    registry, so multi-tree workloads aggregate naturally in
    ``db.metrics.snapshot()``.
    """

    FIELDS = (
        "searches",
        "inserts",
        "deletes",
        "splits",
        "root_splits",
        "bp_updates",
        "rightlink_follows",
        "predicate_blocks",
        "gc_runs",
        "gc_entries",
        "node_deletes",
        "parent_redescents",
        "nsn_restarts",
        "drain_waits",
        "batch_ops",
        "batch_keys",
        "batch_leaf_runs",
        "batch_descents_saved",
        "bulk_loads",
        "bulk_pages_built",
    )

    #: registry names diverging from the plain ``gist.<field>`` scheme
    _NAME_OVERRIDES = {
        "nsn_restarts": "gist.restarts.nsn_mismatch",
        "drain_waits": "gist.drain.waits",
    }

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        registry = registry or MetricsRegistry()
        self._counters = {}
        for field in self.FIELDS:
            setattr(self, field, 0)
            name = self._NAME_OVERRIDES.get(field, f"gist.{field}")
            self._counters[field] = registry.counter(name)

    def bump(self, field: str, amount: int = 1) -> None:
        """Increment a named counter (local and registry-shared)."""
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)
        self._counters[field].inc(amount)

    def snapshot(self) -> dict[str, int]:
        """Thread-safe snapshot of the per-tree counters."""
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}


class OpEnvelope:
    """What every public tree operation runs inside.

    Opens the operation's span (``Database(op_tracing=True)``), times
    it, and — when the operation returns — records the duration into its
    ``gist.op.*`` histogram.  A plain class, not a generator: this sits
    on the path of every point operation.

    It also releases leaked pins/latches when a storage fault unwinds:
    a :class:`~repro.errors.StorageFaultError` surfacing out of a page
    fix aborts the operation mid-descent, past frames it still holds
    pinned and latched; without cleanup the thread's next operation
    self-deadlocks re-acquiring its own latch.  No-op unless a fault
    plan is installed.
    """

    __slots__ = ("tree", "kind", "hist", "span", "t0")

    def __init__(self, tree: "GiST", kind: str, hist: Histogram) -> None:
        self.tree = tree
        self.kind = kind
        self.hist = hist

    def __enter__(self) -> None:
        tree = self.tree
        spans = tree.db.spans
        self.span = (
            spans.begin(self.kind, tree.name) if spans is not None else None
        )
        self.t0 = perf_counter_ns() if tree.metrics.enabled else None

    def __exit__(self, exc_type, exc, tb) -> None:
        tree = self.tree
        if exc_type is not None and issubclass(exc_type, StorageFaultError):
            tree.db.pool.release_thread_fixes()
        if self.span is not None:
            tree.db.spans.finish(self.span)
        if exc_type is None and self.t0 is not None:
            self.hist.record(perf_counter_ns() - self.t0)
