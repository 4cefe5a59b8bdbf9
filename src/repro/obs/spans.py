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

There is one recorder.  A completed span lands as per-kind aggregate
instruments on the metrics registry (``op.<kind>.*``, visible in
``db.metrics.snapshot()``) and as one ``op.<kind>`` event on the
database's :class:`~repro.obs.flightrec.FlightRecorder` ring, carrying
:meth:`OpSpan.as_dict`.  A span keeps no events of its own: its point
events (SMOs, drain waits) are the ring events recorded on the same
thread inside ``[start_ns, start_ns + total_ns]`` — both clocks are
``perf_counter_ns`` — and :func:`spans_from_events` pairs them up, so
one flight dump carries both views ``python -m repro.tools.trace``
renders.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter_ns
from typing import Iterable

from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry

__all__ = ["OpSpan", "SpanTracker", "spans_from_events"]

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

    def as_dict(self) -> dict:
        """The span as a JSONL-ready dict (its ``op.<kind>`` event's data)."""
        out = {
            "op_id": self.op_id,
            "kind": self.kind,
            "start_ns": self.start_ns,
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
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpSpan(#{self.op_id} {self.kind} {self.total_ns}ns)"


class SpanTracker:
    """Creates, carries and aggregates operation spans.

    Parameters
    ----------
    metrics:
        Registry receiving the ``op.<kind>.*`` aggregates.
    flightrec:
        Recorder whose ring receives each completed span as one
        ``op.<kind>`` event.
    """

    def __init__(
        self, metrics: MetricsRegistry, flightrec: FlightRecorder
    ) -> None:
        self.metrics = metrics
        self.flightrec = flightrec
        self._ids = itertools.count(1)
        self._local = threading.local()

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
        return span

    def finish(self, span: OpSpan | None) -> None:
        """Close ``span``, fold it into the aggregates, record it."""
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
        self.flightrec.record(f"op.{kind}", **span.as_dict())

    def active(self) -> OpSpan | None:
        """The span of the operation running on the calling thread."""
        return getattr(self._local, "span", None)

    # ------------------------------------------------------------------
    # subsystem attribution hooks (each: one thread-local read + branch)
    # ------------------------------------------------------------------
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


def spans_from_events(events: Iterable[dict]) -> list[dict]:
    """The completed spans in a flight-recorder event stream, oldest first.

    ``events`` are :meth:`FlightEvent.as_dict` dicts — a live
    ``flightrec.events()`` or a loaded dump.  Each ``op.<kind>`` event is
    one span (its data is :meth:`OpSpan.as_dict`); the other events its
    thread recorded inside ``[start_ns, start_ns + total_ns]`` are
    attached as ``events``, each ``{"name": ..., **data}``.
    """
    ops: list[dict] = []
    by_thread: dict[object, tuple[list[int], list[dict]]] = {}
    for event in events:
        if event["name"].startswith("op."):
            ops.append(event)
            continue
        stamps, points = by_thread.setdefault(event.get("thread"), ([], []))
        stamps.append(event["ts_ns"])
        points.append({"name": event["name"], **event.get("data", {})})
    spans = []
    for event in ops:
        span = dict(event.get("data", {}))
        stamps, points = by_thread.get(event.get("thread"), ([], []))
        start = span["start_ns"]
        lo = bisect_left(stamps, start)
        hi = bisect_right(stamps, start + span["total_ns"])
        span["events"] = points[lo:hi]
        spans.append(span)
    return spans
