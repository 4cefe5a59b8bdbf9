"""A lightweight structured-event tracer with per-thread ring buffers.

Operations record *spans* (named, with a duration) and *events* (named
points in time) into a bounded ring buffer private to the recording
thread, so the hot path is an append to a ``deque`` with no shared lock.
The rings are registered centrally; :meth:`Tracer.events` merges them
into one timestamp-ordered view for inspection and post-mortem analysis
of concurrency scenarios (who followed which rightlink when, where a
drain wait stalled a vacuum, how long each recovery pass took).

Event vocabulary used by the library (``name`` field):

=============================  =======================================
``gist.search/insert/delete``  operation spans (``dur_ns`` set)
``gist.child_visit``           a traversal examined one node
``gist.split`` / ``gist.root_split``  a node/root split committed
``gist.restart.nsn_mismatch``  traversal detected a missed split
``gist.drain.wait``            node deletion refused by the drain probe
``recovery.analysis/redo/undo``  restart-recovery phase spans
=============================  =======================================
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.rings import ThreadRings

__all__ = ["TraceEvent", "Tracer"]


class TraceEvent:
    """One recorded point event or completed span."""

    __slots__ = ("ts_ns", "thread_id", "name", "dur_ns", "data")

    def __init__(
        self,
        ts_ns: int,
        thread_id: int,
        name: str,
        dur_ns: int | None = None,
        data: dict | None = None,
    ) -> None:
        self.ts_ns = ts_ns
        self.thread_id = thread_id
        self.name = name
        self.dur_ns = dur_ns
        self.data = data or {}

    def as_dict(self) -> dict:
        """The event as a plain dict (JSON-friendly)."""
        out = {
            "ts_ns": self.ts_ns,
            "thread_id": self.thread_id,
            "name": self.name,
        }
        if self.dur_ns is not None:
            out["dur_ns"] = self.dur_ns
        if self.data:
            out["data"] = self.data
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f" dur={self.dur_ns}ns" if self.dur_ns is not None else ""
        return f"TraceEvent({self.name!r}{dur} t{self.thread_id})"


class Tracer:
    """Bounded per-thread event rings merged on demand.

    Parameters
    ----------
    capacity:
        Events retained *per thread*; older events are overwritten
        (ring-buffer semantics via ``deque(maxlen=...)``).
    enabled:
        A disabled tracer turns every recording call into a no-op.
    """

    def __init__(self, capacity: int = 1024, enabled: bool = True) -> None:
        self.capacity = capacity
        self.enabled = enabled
        self._rings = ThreadRings(capacity)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def event(self, name: str, **data: object) -> None:
        """Record a point event on the calling thread's ring."""
        if not self.enabled:
            return
        self._rings.append(
            TraceEvent(
                time.perf_counter_ns(),
                threading.get_ident(),
                name,
                None,
                data or None,
            )
        )

    def record_span(self, name: str, dur_ns: int, **data: object) -> None:
        """Record an already-timed span (``dur_ns`` measured by caller)."""
        if not self.enabled:
            return
        self._rings.append(
            TraceEvent(
                time.perf_counter_ns(),
                threading.get_ident(),
                name,
                dur_ns,
                data or None,
            )
        )

    @contextmanager
    def span(self, name: str, **data: object) -> Iterator[None]:
        """Context manager timing its body into one span event."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.record_span(
                name, time.perf_counter_ns() - start, **data
            )

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def events(self, *, name: str | None = None) -> list[TraceEvent]:
        """All retained events, merged across threads in time order
        (a consistent but fuzzy snapshot — see
        :meth:`ThreadRings.snapshot`)."""
        merged: list[TraceEvent] = self._rings.snapshot()
        if name is not None:
            merged = [e for e in merged if e.name == name]
        merged.sort(key=lambda e: e.ts_ns)
        return merged

    def clear(self) -> None:
        """Drop every retained event (rings stay registered)."""
        self._rings.clear()

    def __len__(self) -> int:
        return len(self._rings)
