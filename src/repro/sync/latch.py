"""Share/exclusive latches.

Latches (section 3, footnote 8 of the paper) differ from locks: they are
addressed physically, are cheap to set, are *not* checked for deadlock, and
do not interact with the lock manager.  The tree algorithms are responsible
for using them in a deadlock-free pattern; the central rule the paper
establishes is that **no latch is ever held across an I/O or across a lock
wait**.

:class:`SXLatch` implements a classic share/exclusive latch on top of a
condition variable.  Writers are given preference over new readers once a
writer is queued, which avoids writer starvation under read-heavy loads.

The latch deliberately refuses re-entrant acquisition: a thread asking for
a latch it already holds is a protocol bug in the caller, and surfacing it
immediately (as :class:`~repro.errors.LatchError`) is far more useful than
silently self-deadlocking.

Latches optionally report acquire-wait and hold times into a *timer* — any
object exposing ``sample() -> bool``, ``wait_ns.record(ns)`` and
``hold_ns.record(ns)`` (in practice
:class:`repro.obs.metrics.LatchTimer`, shared across every frame latch of
a buffer pool).  ``sample()`` is called once per acquisition attempt and
decides whether that acquisition is timed — counting and timing are both
batched inside the timer, so the untimed path costs one method call.
With ``timer=None`` (the default, and the stand-alone configuration) no
clock is read at all.
"""

from __future__ import annotations

import threading
from enum import Enum
from time import perf_counter_ns

from repro.errors import LatchError


class LatchMode(Enum):
    """Latch modes: shared (many readers) or exclusive (single writer)."""

    S = "S"
    X = "X"


class SXLatch:
    """A share/exclusive latch with writer preference.

    Parameters
    ----------
    name:
        Optional diagnostic name (usually the page id the latch guards).
    timer:
        Optional metrics sink (see module docstring) recording wait and
        hold times; ``None`` disables all timing.  The timer decides
        per-acquisition whether to time it (``timer.sample()``) — the
        acquisition counter is exact, the histograms are sampled.
    """

    __slots__ = (
        "name",
        "witness",
        "tracker",
        "_cond",
        "_readers",
        "_writer",
        "_waiting_writers",
        "_acquisitions",
        "_timer",
        "_acquired_at",
    )

    def __init__(
        self,
        name: object = None,
        timer: object = None,
        witness: object = None,
        tracker: object = None,
    ) -> None:
        self.name = name
        #: optional lock-order witness (repro.analysis.lockdep); ``None``
        #: — the default — keeps the hot path free of any extra calls
        self.witness = witness
        #: optional span tracker (repro.obs.spans); when set, every
        #: acquisition's full duration (wait + grant path) is attributed
        #: to the calling thread's active operation span
        self.tracker = tracker
        self._cond = threading.Condition()
        self._readers: set[int] = set()
        self._writer: int | None = None
        self._waiting_writers = 0
        #: total successful acquisitions, for instrumentation/benchmarks
        self._acquisitions = 0
        self._timer = timer
        #: per-holder grant timestamps (ns), only kept when timing
        self._acquired_at: dict[int, int] = {}

    def _witness_key(self) -> object:
        return self.name if self.name is not None else f"latch@{id(self):x}"

    # ------------------------------------------------------------------
    # acquisition / release
    # ------------------------------------------------------------------
    def acquire(self, mode: LatchMode, *, nowait: bool = False) -> bool:
        """Acquire the latch in ``mode``.

        With ``nowait=True`` the call never blocks and returns ``False``
        if the latch is unavailable; otherwise it blocks until granted and
        returns ``True``.
        """
        me = threading.get_ident()
        timer = self._timer
        # Timing is sampled (see LatchTimer.sample) — this is the
        # hottest path in the system and unsampled clock reads alone
        # cost several percent of total throughput.  An active op span,
        # by contrast, always times: attribution must be exact and
        # op tracing is an opt-in diagnostic mode.
        sampled = timer is not None and timer.sample()
        tracker = self.tracker
        span = tracker.active() if tracker is not None else None
        start = perf_counter_ns() if (sampled or span is not None) else 0
        with self._cond:
            if self._writer == me or me in self._readers:
                raise LatchError(
                    f"thread {me} re-acquiring latch {self.name!r} it already holds"
                )
            if mode is LatchMode.S:
                if nowait and not self._can_grant_s():
                    return False
                while not self._can_grant_s():
                    self._cond.wait()
                self._readers.add(me)
            else:
                if nowait and not self._can_grant_x():
                    return False
                self._waiting_writers += 1
                try:
                    while not self._can_grant_x():
                        self._cond.wait()
                except BaseException:
                    # Interrupted waiter: drop out of the queue AND wake
                    # the other waiters — S grants are gated on
                    # ``_waiting_writers == 0`` (writer preference) and
                    # would otherwise sleep forever on a stale count.
                    self._waiting_writers -= 1
                    self._cond.notify_all()
                    raise
                self._waiting_writers -= 1
                self._writer = me
            self._acquisitions += 1
            if sampled:
                granted = perf_counter_ns()
                try:
                    timer.wait_ns.record(granted - start)
                    self._acquired_at[me] = granted
                except BaseException:
                    # A faulty timer sink must not leave the latch
                    # granted while the caller unwinds believing the
                    # acquire failed: roll the grant back fully.
                    if mode is LatchMode.S:
                        self._readers.discard(me)
                    else:
                        self._writer = None
                    self._acquisitions -= 1
                    self._acquired_at.pop(me, None)
                    self._cond.notify_all()
                    raise
            if span is not None:
                span.latch_wait_ns += perf_counter_ns() - start
            if self.witness is not None:
                self.witness.note_acquired("latch", self._witness_key())
            return True

    def release(self) -> None:
        """Release the latch held by the calling thread."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer = None
            elif me in self._readers:
                self._readers.discard(me)
            else:
                raise LatchError(
                    f"thread {me} releasing latch {self.name!r} it does not hold"
                )
            try:
                if self._timer is not None:
                    granted_at = self._acquired_at.pop(me, None)
                    if granted_at is not None:
                        self._timer.hold_ns.record(
                            perf_counter_ns() - granted_at
                        )
                if self.witness is not None:
                    self.witness.note_released(
                        "latch", self._witness_key()
                    )
            finally:
                # the ownership release above already happened: waiters
                # MUST be woken even if a metrics sink misbehaves
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def held_by_me(self) -> LatchMode | None:
        """Return the mode in which the calling thread holds the latch."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                return LatchMode.X
            if me in self._readers:
                return LatchMode.S
            return None

    def holders(self) -> tuple[int, ...]:
        """Thread idents currently holding the latch (diagnostics)."""
        with self._cond:
            if self._writer is not None:
                return (self._writer,)
            return tuple(self._readers)

    @property
    def acquisitions(self) -> int:
        """Number of successful acquisitions since construction."""
        return self._acquisitions

    def _can_grant_s(self) -> bool:
        return self._writer is None and self._waiting_writers == 0

    def _can_grant_x(self) -> bool:
        return self._writer is None and not self._readers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SXLatch(name={self.name!r}, writer={self._writer}, "
            f"readers={sorted(self._readers)})"
        )
