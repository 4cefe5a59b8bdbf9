"""Deterministic interleaving hooks.

The races the paper reasons about (Figures 1, 2 and 5) are *logical*
interleavings at well-defined protocol points: "after a traversal read the
parent entry but before it visited the child", "after a split assigned the
new NSN", and so on.  To reproduce those figures deterministically, the
tree implementations fire named hook points; tests bind callbacks that
block on events/barriers, freezing one thread at exactly the right moment
while another races past it.

In production use no hooks are registered and :meth:`Hooks.fire` is a
single dictionary miss — effectively free.

Hook points used by the library (each receives keyword context).  The
table is the contract: ``tests/sync/test_hooks.py`` scans the source for
``hooks.fire("<name>", ...)`` and fails when a point is fired but not
listed here, or listed but never fired.

==========================  ==================================================
point                       context
==========================  ==================================================
``search:node-visited``     ``pid``, ``is_leaf`` — node examined, latch released
``insert:leaf-located``     ``pid`` — target leaf chosen (latched)
``insert:before-split``     ``pid`` — leaf about to be split
``insert:after-split``      ``pid``, ``new_pid`` — split atomic action committed
``insert:before-parent``    ``pid`` — about to re-latch parent for SMO
``insert:done``             ``pid`` — leaf entry installed
``multi_put:run``           ``pid``, ``count`` — one leaf run written, unlatched
``bulk:attached``           ``pid`` — built structure attached, NTA still open
``bulk:structure-built``    ``pid``, ``pages``, ``levels`` — structure NTA ended
``bulk:leaf-filled``        ``pid``, ``count`` — one built leaf filled, unlatched
``delete:marked``           ``pid``, ``rid`` — leaf entry marked deleted
``gc:collected``            ``pid``, ``count`` — leaf garbage-collected
``node-delete:attempt``     ``pid`` — empty node deletion attempted
``node-delete:done``        ``pid`` — node unlinked and freed
==========================  ==================================================
"""

from __future__ import annotations

import threading
from collections import defaultdict
from collections.abc import Callable

HookFn = Callable[..., None]


class Hooks:
    """A registry of named hook points.

    Callbacks are invoked synchronously on the thread that hits the hook
    point, with the context the call site supplies.  Callbacks may block
    (that is their purpose), but must not call back into the tree on the
    same thread.
    """

    def __init__(self) -> None:
        self._hooks: dict[str, list[HookFn]] = {}
        self._lock = threading.Lock()

    def on(self, point: str, fn: HookFn) -> None:
        """Register ``fn`` to run whenever ``point`` fires."""
        with self._lock:
            self._hooks.setdefault(point, []).append(fn)

    def remove(self, point: str, fn: HookFn) -> None:
        """Unregister a previously registered callback."""
        with self._lock:
            callbacks = self._hooks.get(point, [])
            if fn in callbacks:
                callbacks.remove(fn)
            if not callbacks:
                self._hooks.pop(point, None)

    def clear(self) -> None:
        """Remove every registered callback."""
        with self._lock:
            self._hooks.clear()

    def fire(self, point: str, **context: object) -> None:
        """Invoke all callbacks registered for ``point``."""
        callbacks = self._hooks.get(point)
        if not callbacks:
            return
        for fn in list(callbacks):
            fn(**context)


#: Shared no-op instance used when a component is built without hooks.
NULL_HOOKS = Hooks()


class Gate:
    """A reusable two-sided rendezvous for scripting interleavings.

    One thread calls :meth:`block` inside a hook callback and stops there;
    the orchestrating test calls :meth:`wait_blocked` to know the victim
    has arrived, performs the racing operation, then calls :meth:`open`
    to let the victim proceed.
    """

    def __init__(self) -> None:
        self._arrived = threading.Event()
        self._released = threading.Event()

    def block(self, **_context: object) -> None:
        """Hook callback: announce arrival and wait for :meth:`open`."""
        self._arrived.set()
        self._released.wait()

    def wait_blocked(self, timeout: float = 10.0) -> bool:
        """Wait until some thread is parked in :meth:`block`."""
        return self._arrived.wait(timeout)

    def open(self) -> None:
        """Release the parked thread."""
        self._released.set()


class CountingGate(Gate):
    """A :class:`Gate` that only blocks on the *n*-th firing.

    Useful when a hook point fires several times before the interesting
    occurrence (e.g. block a search only when it reaches a specific page).
    """

    def __init__(self, trigger_on: int = 1) -> None:
        super().__init__()
        self._trigger_on = trigger_on
        self._count = 0
        self._count_lock = threading.Lock()

    def block(self, **context: object) -> None:
        """Hook callback: park the calling thread per the class contract."""
        with self._count_lock:
            self._count += 1
            triggered = self._count == self._trigger_on
        if triggered:
            super().block(**context)


class PredicateGate(Gate):
    """A :class:`Gate` that blocks only when a context predicate holds."""

    def __init__(self, predicate: Callable[..., bool]) -> None:
        super().__init__()
        self._predicate = predicate

    def block(self, **context: object) -> None:
        """Hook callback: park the calling thread per the class contract."""
        if self._predicate(**context):
            super().block(**context)


class EventLog:
    """Thread-safe append-only record of hook firings, for assertions."""

    def __init__(self) -> None:
        self._events: list[tuple[str, dict[str, object]]] = []
        self._lock = threading.Lock()

    def recorder(self, point: str) -> HookFn:
        """Return a callback that records firings of ``point``."""

        def record(**context: object) -> None:
            with self._lock:
                self._events.append((point, context))

        return record

    def attach(self, hooks: Hooks, *points: str) -> None:
        """Record every firing of each named point on ``hooks``."""
        for point in points:
            hooks.on(point, self.recorder(point))

    @property
    def events(self) -> list[tuple[str, dict[str, object]]]:
        """Recorded (point, context) pairs so far."""
        with self._lock:
            return list(self._events)

    def points(self) -> list[str]:
        """The sequence of hook-point names observed so far."""
        with self._lock:
            return [point for point, _ in self._events]

    def count(self, point: str) -> int:
        """Number of firings of the named point."""
        with self._lock:
            return sum(1 for p, _ in self._events if p == point)


class StallPoint:
    """Inject a fixed delay at a hook point (coarse race amplification)."""

    def __init__(self, delay: float) -> None:
        self._delay = delay

    def block(self, **_context: object) -> None:
        """Hook callback: park the calling thread per the class contract."""
        threading.Event().wait(self._delay)


def make_barrier_hook(parties: int) -> tuple[HookFn, threading.Barrier]:
    """Create a barrier-based hook forcing ``parties`` threads to align."""
    barrier = threading.Barrier(parties)

    def hook(**_context: object) -> None:
        barrier.wait(timeout=10.0)

    return hook, barrier


class FiringCounter:
    """Count hook firings grouped by an optional context key."""

    def __init__(self, key: str | None = None) -> None:
        self._key = key
        self._counts: dict[object, int] = defaultdict(int)
        self._lock = threading.Lock()

    def __call__(self, **context: object) -> None:
        bucket = context.get(self._key) if self._key else None
        with self._lock:
            self._counts[bucket] += 1

    @property
    def total(self) -> int:
        """Total firings counted."""
        with self._lock:
            return sum(self._counts.values())

    def by_key(self) -> dict[object, int]:
        """Firing counts grouped by the configured context key."""
        with self._lock:
            return dict(self._counts)
