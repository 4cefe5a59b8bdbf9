"""Always-on flight recorder: a bounded black box of recent rare events.

An aircraft flight recorder does not sample the airflow over every
rivet; it keeps the last few minutes of the *decisions* — and that is
the contract here.  Subsystems record only rare, semantically heavy
events (transaction begin/commit/abort, structure modifications,
deadlock-victim selection, lockdep hard violations, crash/restart
boundaries), so the recorder stays on in every configuration within a
fixed extra-calls budget (gated in ``tests/obs/test_overhead.py``).

It is the database's one recorder.  With ``Database(op_tracing=True)``
each completed operation span also lands here, as one ``op.<kind>``
event (:mod:`repro.obs.spans`); a span's point events are the events
its thread recorded inside its time window, so one dump carries both
the span view and the black-box view (``python -m repro.tools.trace``).

Storage is a ring ``deque`` per recording thread — an append takes no
shared lock — plus one global ``itertools.count`` sequence number whose
``next()`` is atomic under the GIL, giving every event a total order
that survives the per-thread sharding.  :meth:`FlightRecorder.dump`
writes the merged ring contents as canonical JSONL (the *black box*);
:meth:`FlightRecorder.canonical` reduces a dump to its deterministic
``(seq, name, data)`` core so a seeded single-threaded chaos trial can
be replayed and compared bit-for-bit (timestamps and thread idents are
excluded — they are the only fields allowed to vary between runs of
the same seed).

The recorder deliberately survives :meth:`~repro.database.Database.crash`
and :meth:`~repro.database.Database.restart` — the black box is the
external observer, not volatile state — so a dump taken after a failed
recovery still shows the pre-crash events that led up to it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

from repro.obs.export import canonical_events, dump_jsonl

__all__ = ["FlightEvent", "FlightRecorder"]


class FlightEvent:
    """One recorded flight event (globally sequenced)."""

    __slots__ = ("seq", "ts_ns", "thread", "name", "data")

    def __init__(
        self,
        seq: int,
        ts_ns: int,
        thread: int,
        name: str,
        data: dict | None,
    ) -> None:
        self.seq = seq
        self.ts_ns = ts_ns
        self.thread = thread
        self.name = name
        self.data = data or {}

    def as_dict(self) -> dict:
        """The event as a plain JSONL-ready dict."""
        out = {
            "seq": self.seq,
            "ts_ns": self.ts_ns,
            "thread": self.thread,
            "name": self.name,
        }
        if self.data:
            out["data"] = self.data
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightEvent(#{self.seq} {self.name!r})"


class _Ring:
    """One thread's private event ring, write count and snapshot guard."""

    __slots__ = ("events", "writes", "lock")

    def __init__(self, capacity: int) -> None:
        self.events: deque = deque(maxlen=capacity)
        #: exact number of appends — ``len()`` cannot say, the ring
        #: forgets what it overwrote
        self.writes = 0
        #: guards reader snapshots/clears against the owner's appends —
        #: ``list(deque)`` during a concurrent append can raise
        #: ``RuntimeError: deque mutated during iteration``
        self.lock = threading.Lock()


class FlightRecorder:
    """Bounded per-thread rings of recent structured events.

    Parameters
    ----------
    capacity:
        Events retained *per recording thread*; older events are
        overwritten.  The black box is a window, not a log.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._seq = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rings: list[_Ring] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, name: str, **data: object) -> None:
        """Record one event on the calling thread's ring.

        Safe to call from leaf positions (under a subsystem mutex, from
        the lockdep witness): the only locks taken are the ring's own
        guard (contended only against a concurrent reader) and — once
        per thread, at ring registration — the registry's.
        """
        try:
            ring = self._local.ring
        except AttributeError:
            ring = _Ring(self.capacity)
            with self._lock:
                self._rings.append(ring)
            self._local.ring = ring
        event = FlightEvent(
            next(self._seq),
            time.perf_counter_ns(),
            threading.get_ident(),
            name,
            data or None,
        )
        with ring.lock:
            ring.events.append(event)
            ring.writes += 1

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def _registered(self) -> list[_Ring]:
        with self._lock:
            return list(self._rings)

    def events(self) -> list[FlightEvent]:
        """All retained events, merged across threads in sequence order.

        A fuzzy snapshot under concurrency, like any other reader —
        rings keep filling while the copy runs — but a *consistent*
        one: each ring is copied under its own guard, so a worker
        appending mid-snapshot can never corrupt the copy.
        """
        merged: list[FlightEvent] = []
        for ring in self._registered():
            with ring.lock:
                merged.extend(ring.events)
        merged.sort(key=lambda e: e.seq)
        return merged

    def last(self, n: int) -> list[FlightEvent]:
        """The most recent ``n`` events across all threads."""
        events = self.events()
        return events[-n:] if n > 0 else []

    def writes(self) -> int:
        """Exact number of events ever recorded (bench budget gate —
        ``len()`` forgets what the rings overwrote)."""
        total = 0
        for ring in self._registered():
            with ring.lock:
                total += ring.writes
        return total

    def clear(self) -> None:
        """Drop every retained event (rings stay registered)."""
        for ring in self._registered():
            with ring.lock:
                ring.events.clear()

    def __len__(self) -> int:
        total = 0
        for ring in self._registered():
            with ring.lock:
                total += len(ring.events)
        return total

    # ------------------------------------------------------------------
    # black box
    # ------------------------------------------------------------------
    def dump(self, path: str) -> str:
        """Write the merged ring contents to ``path`` as canonical JSONL."""
        return dump_jsonl(path, (e.as_dict() for e in self.events()))

    def canonical(self) -> list[tuple[int, str, str]]:
        """The deterministic replay core of the current ring contents."""
        return canonical_events([e.as_dict() for e in self.events()])
