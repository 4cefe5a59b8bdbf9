"""Signaling locks (sections 7.2, 10.2, 10.3): a holder count per node.

A traversal holds a signaling lock on each node it keeps a pointer to,
and a node may be deleted only once nobody else holds one.  Holders
never conflict and nobody waits for one, so unlike
:class:`~repro.lock.manager.LockManager` there is no queue, no mode and
no deadlock detection: counts per transaction, a copy of them when a
node splits, and a no-wait probe for the deleter.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import MetricsRegistry


class SignalingLocks:
    """Per-name holder counts, plus the names each transaction holds."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._mutex = threading.Lock()
        #: name -> {xid: count}; a name nobody holds has no entry
        self._holders: dict[object, dict[int, int]] = {}
        #: xid -> the names it holds
        self._names: dict[int, set] = {}
        #: mutated under the mutex only, read by a gauge at snapshot
        #: time: a take makes no registry call
        self.takes = 0
        if metrics is not None:
            metrics.gauge("lock.signaling_takes", lambda: self.takes)

    def take(self, xid: int, name: object) -> None:
        """One more hold of ``name`` by ``xid``; never waits."""
        with self._mutex:
            self.takes += 1
            holders = self._holders.get(name)
            if holders is None:
                holders = self._holders[name] = {}
            count = holders.get(xid, 0)
            if not count:
                self._names.setdefault(xid, set()).add(name)
            holders[xid] = count + 1

    def drop(self, xid: int, name: object) -> None:
        """One hold fewer; a no-op when ``xid`` holds none."""
        with self._mutex:
            holders = self._holders.get(name)
            count = holders.get(xid, 0) if holders else 0
            if count > 1:
                holders[xid] = count - 1
            elif count:
                del holders[xid]
                if not holders:
                    del self._holders[name]
                self._names[xid].discard(name)

    def replicate(self, src: object, dst: object) -> None:
        """Copy every hold on ``src`` onto ``dst``, counts included: each
        stands for a stacked pointer whose owner may cross the new
        rightlink into ``dst`` and drop one there (section 10.3)."""
        with self._mutex:
            holders = self._holders.get(src)
            if not holders:
                return
            copies = self._holders.setdefault(dst, {})
            for xid, count in holders.items():
                if xid not in copies:
                    self._names[xid].add(dst)
                copies[xid] = copies.get(xid, 0) + count

    def release(self, xid: int) -> None:
        """Drop every hold of ``xid`` (end of transaction)."""
        with self._mutex:
            for name in self._names.pop(xid, ()):
                holders = self._holders[name]
                del holders[xid]
                if not holders:
                    del self._holders[name]

    def held_by_others(self, xid: int, name: object) -> bool:
        """The deleter's drain probe: does anyone but ``xid`` hold it?"""
        with self._mutex:
            holders = self._holders.get(name, ())
            return len(holders) > (xid in holders)

    def holders(self, name: object) -> dict[int, int]:
        """``{xid: count}`` for ``name``."""
        with self._mutex:
            return dict(self._holders.get(name, {}))

    def names_of(self, xid: int) -> set:
        """The names ``xid`` holds."""
        with self._mutex:
            return set(self._names.get(xid, ()))

    def __len__(self) -> int:
        """How many names anyone holds."""
        with self._mutex:
            return len(self._holders)
