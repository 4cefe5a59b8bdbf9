"""Bounded per-thread event rings, shared by the tracer and the black box.

Each recording thread owns a ring ``deque`` — an append takes no lock
another recorder contends on — and the rings are registered centrally
so a reader can copy them all into one list.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["ThreadRings"]


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


class ThreadRings:
    """One ring of the last ``capacity`` events per recording thread."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rings: list[_Ring] = []

    def append(self, event: object) -> None:
        """Append ``event`` to the calling thread's ring.

        The only locks taken are the ring's own guard (contended only
        against a concurrent reader) and — once per thread, at ring
        registration — the registry's.
        """
        try:
            ring = self._local.ring
        except AttributeError:
            ring = _Ring(self.capacity)
            with self._lock:
                self._rings.append(ring)
            self._local.ring = ring
        with ring.lock:
            ring.events.append(event)
            ring.writes += 1

    def _registered(self) -> list[_Ring]:
        with self._lock:
            return list(self._rings)

    def snapshot(self) -> list:
        """Every retained event, ring by ring (callers sort).

        A fuzzy snapshot under concurrency, like any other reader —
        rings keep filling while the copy runs — but a *consistent*
        one: each ring is copied under its own guard, so a worker
        appending mid-snapshot can never corrupt the copy.
        """
        merged: list = []
        for ring in self._registered():
            with ring.lock:
                merged.extend(ring.events)
        return merged

    def writes(self) -> int:
        """Exact number of events ever appended, overwritten or not."""
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
