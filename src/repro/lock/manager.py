"""The lock manager.

Implements the transactional locking substrate the paper assumes:

* S and X locks on arbitrary hashable names (data-record RIDs,
  owner-transaction ids for blocking "on a predicate" — see section
  10.3; node *signaling locks* live in :mod:`repro.lock.signaling`),
* FIFO wait queues with immediate-grant conversions,
* waits-for-graph deadlock detection with youngest-victim abort (the
  paper relies on this to resolve the unique-index insertion race of
  section 8),
* no-wait acquisition (a scan's record locks, taken under a latch),
  one name at a time or a leaf's worth of names in one mutex hold,
* an uncontended fast path: a name nobody holds is granted by creating
  its head, and a head's wait queue exists only once a request has had
  to wait.

Unlike latches, locks are held by *transactions*, are organized in a hash
table, and are checked for deadlock — exactly the distinction footnote 8
of the paper draws.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns

from repro.errors import DeadlockError, LockTimeoutError
from repro.lock.modes import LockMode, compatible, stronger_or_equal
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry

#: Lock names are arbitrary hashables; by convention the library uses
#: tuples like ``("rid", rid)`` and ``("txn", xid)``.
LockName = object
#: Lock owners are transaction ids (ints) by convention.
Owner = object

#: A waiter re-checks for deadlock victimhood and timeout this often (µs).
_SLICE_US = 50_000


@dataclass
class _Request:
    owner: Owner
    mode: LockMode
    convert_from: LockMode | None = None
    granted: bool = False
    victim: bool = False


class _LockHead:
    """One lock-table entry, created already granted to its first owner."""

    __slots__ = ("name", "granted", "counts", "queue")

    def __init__(self, name: LockName, owner: Owner, mode: LockMode) -> None:
        self.name = name
        self.granted: dict[Owner, LockMode] = {owner: mode}
        self.counts: dict[Owner, int] = {owner: 1}
        #: FIFO waiters; ``None`` until a request first has to wait
        self.queue: deque[_Request] | None = None


class LockStats:
    """Counters the benchmarks read off the lock manager.

    The ints are only ever mutated while the manager's mutex is held, so
    plain ``+=`` is exact; the registry reads them through ``lock.*``
    gauges evaluated at snapshot time, which makes a lock acquisition
    cost zero registry calls on the hot path.  Only the wait-time
    histogram is a live registry instrument (waits are rare and already
    expensive).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        registry = registry or MetricsRegistry()
        #: mutated under the manager mutex only
        self.acquires = 0
        self.waits = 0
        self.deadlocks = 0
        self.timeouts = 0
        registry.gauge("lock.acquires", lambda: self.acquires)
        registry.gauge("lock.waits", lambda: self.waits)
        registry.gauge("lock.deadlocks", lambda: self.deadlocks)
        registry.gauge("lock.timeouts", lambda: self.timeouts)
        self.wait_ns = registry.histogram("lock.wait_ns")

    def snapshot(self) -> dict[str, int]:
        """Thread-safe snapshot of the counters."""
        return {
            "acquires": self.acquires,
            "waits": self.waits,
            "deadlocks": self.deadlocks,
            "timeouts": self.timeouts,
        }


class LockManager:
    """A strict-queue lock manager with deadlock detection.

    Parameters
    ----------
    default_timeout:
        Backstop timeout in seconds for any wait (protects the test suite
        against undetected hangs).  ``None`` waits forever.
    metrics:
        Metrics registry for the ``lock.*`` counters and wait-time
        histogram; a private registry is created when omitted.
    """

    def __init__(
        self,
        default_timeout: float | None = 30.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.default_timeout = default_timeout
        self.stats = LockStats(metrics)
        #: lockdep witness (Database(protocol_checks=True)); flags any
        #: blocking lock wait entered while the thread holds a latch
        self.witness = None
        #: span tracker (Database(op_tracing=True)); lock waits are
        #: attributed to the blocked thread's active operation span
        self.tracker = None
        #: flight recorder (black box); deadlock-victim selection is a
        #: rare, semantically heavy event and is always recorded — a
        #: private one until the database installs its own
        self.flightrec = FlightRecorder()
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._heads: dict[LockName, _LockHead] = {}
        self._held: dict[Owner, set[LockName]] = {}
        #: owners currently waiting, mapped to their queued request + head
        self._waiting: dict[Owner, tuple[_Request, _LockHead]] = {}

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------
    def acquire(
        self,
        owner: Owner,
        name: LockName,
        mode: LockMode,
        *,
        wait: bool = True,
        timeout: float | None = None,
    ) -> bool:
        """Acquire ``name`` in ``mode`` on behalf of ``owner``.

        Returns ``True`` when granted.  With ``wait=False`` returns
        ``False`` immediately instead of blocking.  Raises
        :class:`DeadlockError` if this request closes a waits-for cycle
        and ``owner`` is chosen as the victim, or
        :class:`LockTimeoutError` on timeout.
        """
        if timeout is None:
            timeout = self.default_timeout
        with self._mutex:
            self.stats.acquires += 1
            if self._grant_now(owner, name, mode):
                return True
            if not wait:
                return False
            head = self._heads[name]
            if head.queue is None:
                head.queue = deque()
            held = head.granted.get(owner)
            if held is not None:
                request = _Request(owner, mode, convert_from=held)
                # Conversions go ahead of ordinary waiters but behind
                # earlier conversions (FIFO among conversions).
                insert_at = 0
                for i, queued in enumerate(head.queue):
                    if queued.convert_from is None:
                        break
                    insert_at = i + 1
                head.queue.insert(insert_at, request)
            else:
                request = _Request(owner, mode)
                head.queue.append(request)
            return self._wait_for_grant(head, request, timeout)

    def try_acquire_many(
        self, owner: Owner, names: list[LockName], mode: LockMode
    ) -> int:
        """No-wait acquisition of ``names`` in order, in one mutex hold.

        Stops at the first name that cannot be granted at once and
        returns how many were granted (a prefix of ``names``).  Each
        name attempted counts as one acquisition, exactly as the same
        sequence of ``acquire(..., wait=False)`` calls would.
        """
        with self._mutex:
            for granted, name in enumerate(names):
                if not self._grant_now(owner, name, mode):
                    self.stats.acquires += granted + 1
                    return granted
            self.stats.acquires += len(names)
            return len(names)

    def _wait_for_grant(
        self, head: _LockHead, request: _Request, timeout: float | None
    ) -> bool:
        """Block (mutex held) until the queued request is granted."""
        if self.witness is not None:
            # An actual (not merely potential) wait is starting: the
            # paper forbids holding any latch across this point.
            self.witness.note_lock_wait(head.name)
        self.stats.waits += 1
        self._waiting[request.owner] = (request, head)
        wait_start = perf_counter_ns()
        try:
            self._detect_deadlock()
            # The wait budget in whole microseconds: float subtraction
            # would leave a residue of about 1e-17 s as a last slice.
            remaining = None if timeout is None else round(timeout * 1e6)
            while not request.granted:
                if request.victim:
                    self._remove_request(head, request)
                    self.stats.deadlocks += 1
                    raise DeadlockError(
                        f"transaction {request.owner!r} chosen as deadlock "
                        f"victim waiting for {head.name!r}"
                    )
                if remaining is not None and remaining <= 0:
                    self._remove_request(head, request)
                    self.stats.timeouts += 1
                    raise LockTimeoutError(
                        f"lock wait timeout on {head.name!r} by "
                        f"{request.owner!r}"
                    )
                slice_us = (
                    _SLICE_US if remaining is None else min(_SLICE_US, remaining)
                )
                self._cond.wait(slice_us / 1e6)
                if remaining is not None:
                    remaining -= slice_us
            return True
        finally:
            # Every wait is measured — granted, victimized or timed out;
            # the histogram is the latency face of the waits counter.
            wait_ns = perf_counter_ns() - wait_start
            self.stats.wait_ns.record(wait_ns)
            if self.tracker is not None:
                self.tracker.add_lock_wait(wait_ns)
            self._waiting.pop(request.owner, None)

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def release(self, owner: Owner, name: LockName) -> None:
        """Drop one acquisition of ``name`` by ``owner``."""
        with self._mutex:
            head = self._heads.get(name)
            if head is None or owner not in head.granted:
                return
            head.counts[owner] -= 1
            if head.counts[owner] > 0:
                return
            del head.granted[owner]
            del head.counts[owner]
            held = self._held.get(owner)
            if held is not None:
                held.discard(name)
            if head.queue:
                self._promote(head)
            elif not head.granted:
                del self._heads[name]

    def release_all(self, owner: Owner) -> None:
        """Release every lock held by ``owner`` (end of transaction).

        A head nobody else holds or awaits is deleted outright; only a
        head with a queue pays for :meth:`_promote`.
        """
        with self._mutex:
            heads = self._heads
            for name in self._held.pop(owner, ()):
                head = heads.get(name)
                if head is None or head.granted.pop(owner, None) is None:
                    continue
                del head.counts[owner]
                if head.queue:
                    self._promote(head)
                elif not head.granted:
                    del heads[name]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def holders(self, name: LockName) -> dict[Owner, LockMode]:
        """Granted owners of ``name`` with their modes."""
        with self._mutex:
            head = self._heads.get(name)
            return dict(head.granted) if head else {}

    def held_mode(self, owner: Owner, name: LockName) -> LockMode | None:
        """Mode in which ``owner`` holds ``name``, or ``None``."""
        with self._mutex:
            head = self._heads.get(name)
            return head.granted.get(owner) if head else None

    def locks_of(self, owner: Owner) -> set[LockName]:
        """All lock names currently held by ``owner``."""
        with self._mutex:
            return set(self._held.get(owner, ()))

    # ------------------------------------------------------------------
    # internals (mutex held)
    # ------------------------------------------------------------------
    def _grant_now(self, owner: Owner, name: LockName, mode: LockMode) -> bool:
        """The grant rule: grant ``name`` to ``owner`` in ``mode`` if that
        is possible without waiting (the caller counts the attempt).

        A name nobody holds is granted by creating its head; a held mode
        that covers ``mode`` is re-entered; the one conversion, S to X,
        is granted to a sole holder; a fresh request when no holder
        conflicts and nobody is queued (FIFO fairness).
        """
        head = self._heads.get(name)
        if head is None:
            self._heads[name] = _LockHead(name, owner, mode)
            self._note_held(owner, name)
            return True
        held = head.granted.get(owner)
        if held is not None:
            if not stronger_or_equal(held, mode):
                if len(head.granted) > 1:
                    return False
                head.granted[owner] = mode
            head.counts[owner] += 1
            return True
        if self._fresh_grantable(head, mode):
            self._grant(head, owner, mode)
            return True
        return False

    def _note_held(self, owner: Owner, name: LockName) -> None:
        held = self._held.get(owner)
        if held is None:
            self._held[owner] = {name}
        else:
            held.add(name)

    def _grant(self, head: _LockHead, owner: Owner, mode: LockMode) -> None:
        head.granted[owner] = mode
        head.counts[owner] = head.counts.get(owner, 0) + 1
        self._note_held(owner, head.name)

    def _fresh_grantable(self, head: _LockHead, mode: LockMode) -> bool:
        if head.queue:
            return False  # FIFO fairness: never overtake waiters
        return all(compatible(m, mode) for m in head.granted.values())

    def _promote(self, head: _LockHead) -> None:
        """Grant queued requests now possible, preserving FIFO order."""
        woke = False
        while head.queue:
            request = head.queue[0]
            if request.convert_from is not None:
                if len(head.granted) > 1:
                    break  # X converts from S only for a sole holder
                head.granted[request.owner] = request.mode
                head.counts[request.owner] += 1
            else:
                if not all(
                    compatible(m, request.mode)
                    for m in head.granted.values()
                ):
                    break
                self._grant(head, request.owner, request.mode)
            head.queue.popleft()
            request.granted = True
            woke = True
        if not head.granted and not head.queue:
            self._heads.pop(head.name, None)
        if woke:
            self._cond.notify_all()

    def _remove_request(self, head: _LockHead, request: _Request) -> None:
        try:
            head.queue.remove(request)
        except ValueError:
            pass
        self._promote(head)

    # ------------------------------------------------------------------
    # deadlock detection (mutex held)
    # ------------------------------------------------------------------
    def _blockers_of(self, request: _Request, head: _LockHead) -> set[Owner]:
        """Owners this queued request is waiting on."""
        blockers: set[Owner] = set()
        for other, mode in head.granted.items():
            if other == request.owner:
                continue
            if not compatible(mode, request.mode):
                blockers.add(other)
        for queued in head.queue:
            if queued is request:
                break
            if queued.owner != request.owner and not compatible(
                queued.mode, request.mode
            ):
                blockers.add(queued.owner)
        return blockers

    def _detect_deadlock(self) -> None:
        """Find waits-for cycles; mark the youngest member a victim.

        "Youngest" is the largest owner id under Python ordering when
        comparable, else the most recent waiter.
        """
        graph: dict[Owner, set[Owner]] = {}
        for owner, (request, head) in self._waiting.items():
            graph[owner] = self._blockers_of(request, head)

        visited: set[Owner] = set()
        for start in list(graph):
            if start in visited:
                continue
            cycle = self._find_cycle(graph, start, visited)
            if not cycle:
                continue
            victim = self._pick_victim(cycle)
            entry = self._waiting.get(victim)
            if entry is not None:
                entry[0].victim = True
                # leaf-safe: the recorder takes only its ring lock
                self.flightrec.record(
                    "lock.deadlock_victim",
                    victim=repr(victim),
                    cycle=[repr(o) for o in cycle],
                    lock=repr(entry[1].name),
                )
                self._cond.notify_all()

    @staticmethod
    def _find_cycle(
        graph: dict[Owner, set[Owner]], start: Owner, visited: set[Owner]
    ) -> list[Owner] | None:
        path: list[Owner] = []
        on_path: set[Owner] = set()

        def dfs(node: Owner) -> list[Owner] | None:
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for neighbor in graph.get(node, ()):
                if neighbor in on_path:
                    idx = path.index(neighbor)
                    return path[idx:]
                if neighbor in graph and neighbor not in visited:
                    found = dfs(neighbor)
                    if found:
                        return found
            path.pop()
            on_path.discard(node)
            return None

        return dfs(start)

    @staticmethod
    def _pick_victim(cycle: list[Owner]) -> Owner:
        try:
            return max(cycle)  # type: ignore[type-var]
        except TypeError:
            return cycle[-1]
