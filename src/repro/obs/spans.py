"""Operation-scoped span trees: per-op latency attribution.

Aggregate histograms (PR 1) say *how long* operations take; lockdep
(PR 5) says *whether* the protocol was violated.  The span tracker says
**where one operation's time went**: every database operation (insert /
delete / search / scan / commit / abort) opens an :class:`OpSpan`, the
subsystems it descends through — latch acquires, lock-manager waits,
buffer-pool I/O, WAL appends and flushes — attribute their stalls to
the span of the operation running on the calling thread, and at finish
the residue (total minus all attributed waits) is the operation's CPU
time.

Threading model: the op id is carried *implicitly*.  The tracker keeps
the current span in a ``threading.local``; subsystems fetch it with
:meth:`SpanTracker.active` and add to its tallies.  The paper's
operations are strictly per-thread (a descent never migrates threads),
so a thread-local is exactly the right scope and no signature anywhere
has to grow an ``op_id`` parameter.  Nested operations (``delete_where``
running a search, an undo re-entering the tree) fold into the outermost
span: :meth:`begin` returns ``None`` when a span is already active and
:meth:`finish` ignores ``None``.

Cost model: the tracker exists only when the database was built with
``op_tracing=True``.  Subsystems hold ``None`` otherwise and their hot
paths pay a single attribute-load-plus-branch — the same gating pattern
as the lockdep witness — so the off state adds *zero* function calls
and zero ring writes (counter-asserted in ``tests/obs/test_overhead.py``).

Completed spans land in two places: per-kind aggregate instruments on
the metrics registry (``op.<kind>.*``, visible in
``db.metrics.snapshot()``) and a bounded ring of recent spans that
``python -m repro.tools.trace`` pretty-prints.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from time import perf_counter_ns

from repro.obs.export import dump_jsonl
from repro.obs.metrics import MetricsRegistry

__all__ = ["OpSpan", "SpanTracker"]

#: attribution buckets, in the order the trace tool prints them
ATTRIBUTION_FIELDS = (
    "latch_wait_ns",
    "lock_wait_ns",
    "io_ns",
    "wal_ns",
)


class OpSpan:
    """One operation's span: total time plus per-subsystem attribution."""

    __slots__ = (
        "op_id",
        "kind",
        "tree",
        "start_ns",
        "end_ns",
        "latch_wait_ns",
        "lock_wait_ns",
        "io_ns",
        "wal_ns",
        "wal_appends",
        "buffer_fixes",
        "events",
    )

    def __init__(self, op_id: int, kind: str, tree: str | None) -> None:
        self.op_id = op_id
        self.kind = kind
        self.tree = tree
        self.start_ns = perf_counter_ns()
        self.end_ns: int | None = None
        #: cumulative time inside latch acquisition (wait + grant path)
        self.latch_wait_ns = 0
        #: cumulative time blocked in the lock manager
        self.lock_wait_ns = 0
        #: cumulative page-store read/write time (buffer misses,
        #: writebacks and flushes issued by this operation)
        self.io_ns = 0
        #: cumulative WAL flush (group-commit) wait time
        self.wal_ns = 0
        self.wal_appends = 0
        self.buffer_fixes = 0
        #: point events attached to the span (SMOs, NSN restarts)
        self.events: list[tuple[str, dict]] = []

    @property
    def total_ns(self) -> int:
        """Wall time from begin to finish (0 while still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def cpu_ns(self) -> int:
        """Total minus every attributed wait — the compute residue.

        Attribution regions never overlap on one thread (a latch is not
        acquired *inside* a page read, etc. — the paper's protocol
        forbids exactly those nestings), so the subtraction is sound.
        """
        waits = (
            self.latch_wait_ns + self.lock_wait_ns + self.io_ns + self.wal_ns
        )
        return max(0, self.total_ns - waits)

    def note_event(self, name: str, **data: object) -> None:
        """Attach a point event (SMO, restart) to this span."""
        self.events.append((name, data))

    def as_dict(self) -> dict:
        """The span as a JSONL-ready dict (the trace tool's input)."""
        out = {
            "op_id": self.op_id,
            "kind": self.kind,
            "total_ns": self.total_ns,
            "cpu_ns": self.cpu_ns,
            "latch_wait_ns": self.latch_wait_ns,
            "lock_wait_ns": self.lock_wait_ns,
            "io_ns": self.io_ns,
            "wal_ns": self.wal_ns,
            "wal_appends": self.wal_appends,
            "buffer_fixes": self.buffer_fixes,
        }
        if self.tree is not None:
            out["tree"] = self.tree
        if self.events:
            out["events"] = [
                {"name": name, **data} for name, data in self.events
            ]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpSpan(#{self.op_id} {self.kind} {self.total_ns}ns)"


class SpanTracker:
    """Creates, carries and aggregates operation spans.

    Parameters
    ----------
    metrics:
        Registry receiving the ``op.<kind>.*`` aggregates.
    capacity:
        Completed spans retained for :meth:`completed` / the trace tool.
    """

    def __init__(
        self, metrics: MetricsRegistry | None = None, capacity: int = 256
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.capacity = capacity
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._done_lock = threading.Lock()
        self._done: deque[OpSpan] = deque(maxlen=capacity)
        #: exact count of spans ever started (bench dormancy gate)
        self._started = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self, kind: str, tree: str | None = None) -> OpSpan | None:
        """Open a span for the calling thread's operation.

        Returns ``None`` when a span is already active — nested
        operations attribute into the outermost one — and the caller
        passes whatever it got straight back to :meth:`finish`.
        """
        if getattr(self._local, "span", None) is not None:
            return None
        span = OpSpan(next(self._ids), kind, tree)
        self._local.span = span
        with self._done_lock:
            self._started += 1
        return span

    def finish(self, span: OpSpan | None) -> None:
        """Close ``span``, fold it into the aggregates, retain it."""
        if span is None:
            return
        span.end_ns = perf_counter_ns()
        self._local.span = None
        m = self.metrics
        kind = span.kind
        m.counter(f"op.{kind}.count").inc()
        m.histogram(f"op.{kind}.total_ns").record(span.total_ns)
        m.counter(f"op.{kind}.latch_wait_ns").inc(span.latch_wait_ns)
        m.counter(f"op.{kind}.lock_wait_ns").inc(span.lock_wait_ns)
        m.counter(f"op.{kind}.io_ns").inc(span.io_ns)
        m.counter(f"op.{kind}.wal_ns").inc(span.wal_ns)
        m.counter(f"op.{kind}.cpu_ns").inc(span.cpu_ns)
        m.counter(f"op.{kind}.wal_appends").inc(span.wal_appends)
        m.counter(f"op.{kind}.buffer_fixes").inc(span.buffer_fixes)
        with self._done_lock:
            self._done.append(span)

    def active(self) -> OpSpan | None:
        """The span of the operation running on the calling thread."""
        return getattr(self._local, "span", None)

    # ------------------------------------------------------------------
    # subsystem attribution hooks (each: one thread-local read + branch)
    # ------------------------------------------------------------------
    def add_latch_wait(self, ns: int) -> None:
        """Attribute a latch acquisition's duration to the active op."""
        span = getattr(self._local, "span", None)
        if span is not None:
            span.latch_wait_ns += ns

    def add_lock_wait(self, ns: int) -> None:
        """Attribute a lock-manager wait to the active op."""
        span = getattr(self._local, "span", None)
        if span is not None:
            span.lock_wait_ns += ns

    def add_io(self, ns: int) -> None:
        """Attribute a page-store read/write to the active op."""
        span = getattr(self._local, "span", None)
        if span is not None:
            span.io_ns += ns

    def add_wal(self, ns: int) -> None:
        """Attribute a WAL flush wait to the active op."""
        span = getattr(self._local, "span", None)
        if span is not None:
            span.wal_ns += ns

    def note_wal_append(self) -> None:
        """Count one WAL append against the active op."""
        span = getattr(self._local, "span", None)
        if span is not None:
            span.wal_appends += 1

    def note_fix(self) -> None:
        """Count one buffer-pool pin against the active op."""
        span = getattr(self._local, "span", None)
        if span is not None:
            span.buffer_fixes += 1

    def note_event(self, name: str, **data: object) -> None:
        """Attach a point event to the active op (no-op when none)."""
        span = getattr(self._local, "span", None)
        if span is not None:
            span.note_event(name, **data)

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def completed(self) -> list[OpSpan]:
        """Recently completed spans, oldest first."""
        with self._done_lock:
            return list(self._done)

    @property
    def started(self) -> int:
        """Exact number of spans ever begun (bench dormancy gate)."""
        with self._done_lock:
            return self._started

    def export_jsonl(self, path: str) -> str:
        """Dump the completed spans to ``path`` as canonical JSONL."""
        return dump_jsonl(path, (s.as_dict() for s in self.completed()))
