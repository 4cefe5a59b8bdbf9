"""The predicate manager (section 10.3).

Implements the node-attached predicate locks of the hybrid repeatable-read
mechanism (section 4.3).  The three data structures are exactly the ones
the paper lists:

* a list of predicates per transaction,
* a list of node attachments per predicate,
* a FIFO-ordered list of the predicates attached to each node.

Invariant (section 4.3): *if a search operation's predicate is consistent
with a node's BP, the predicate must be attached to that node.*  The tree
maintains it by attaching top-down during traversal, replicating on node
splits, and percolating during BP expansion; the manager provides those
operations.

Fairness / anti-starvation (section 10.3): predicates attached to a node
form a FIFO list; an insert operation attaches its key as an *insert
predicate* before checking, and only checks predicates **ahead of its
own** in the list.  Search operations symmetrically block on insert
predicates ahead of theirs, so a blocked insert can never be starved by
an endless stream of new scans.

Blocking "on a predicate" is delegated to the lock manager: waiting for
predicate P means S-locking the lock name ``("txn", P.owner)``, which its
owner holds in X mode from begin to termination.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

from repro.lock.manager import LockManager
from repro.lock.modes import LockMode
from repro.storage.page import PageId
from repro.txn.manager import txn_lock_name


class PredicateKind(Enum):
    """What kind of operation registered the predicate."""

    #: a search operation's predicate (blocks inserts into its range)
    SEARCH = "search"
    #: an insert operation's key (lets scans queue fairly behind it, and
    #: implements the "= key" race-breaking predicates of section 8)
    INSERT = "insert"


@dataclass
class PredicateLock:
    """One registered predicate."""

    owner: int
    pred: object
    kind: PredicateKind
    seqno: int = field(default=0)
    #: node pids this predicate is currently attached to
    attachments: set[PageId] = field(default_factory=set)

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class PredicateStats:
    """Counters for the hybrid-vs-pure comparison benchmarks (C2)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attaches = 0
        self.checks = 0
        self.comparisons = 0
        self.conflicts = 0

    def note_check(self, comparisons: int, conflicts: int) -> None:
        """Record one conflict check and its comparison count."""
        with self._lock:
            self.checks += 1
            self.comparisons += comparisons
            self.conflicts += conflicts

    def note_attach(self, count: int = 1) -> None:
        """Record predicate attachments."""
        with self._lock:
            self.attaches += count

    def snapshot(self) -> dict[str, int]:
        """Thread-safe snapshot of the counters."""
        with self._lock:
            return {
                "attaches": self.attaches,
                "checks": self.checks,
                "comparisons": self.comparisons,
                "conflicts": self.conflicts,
            }


class PredicateManager:
    """Per-tree registry of node-attached predicate locks.

    Parameters
    ----------
    consistent:
        The tree extension's ``consistent(pred, key)`` function; the
        manager has no semantic knowledge of predicates beyond it
        (section 4.2's observation about generic predicate handling).
    """

    def __init__(self, consistent: Callable[[object, object], bool]) -> None:
        self.consistent = consistent
        self.stats = PredicateStats()
        self._mutex = threading.Lock()
        self._seq = itertools.count(1)
        #: xid -> predicates registered by that transaction
        self._by_txn: dict[int, list[PredicateLock]] = {}
        #: node pid -> FIFO list of attached predicates
        self._by_node: dict[PageId, list[PredicateLock]] = {}

    # ------------------------------------------------------------------
    # registration / attachment
    # ------------------------------------------------------------------
    def register(
        self, owner: int, pred: object, kind: PredicateKind
    ) -> PredicateLock:
        """Create a predicate lock owned by transaction ``owner``."""
        plock = PredicateLock(owner, pred, kind, seqno=next(self._seq))
        with self._mutex:
            self._by_txn.setdefault(owner, []).append(plock)
        return plock

    def attach(self, plock: PredicateLock, pid: PageId) -> None:
        """Attach the predicate to a node (idempotent, FIFO position)."""
        with self._mutex:
            if pid in plock.attachments:
                return
            plock.attachments.add(pid)
            self._by_node.setdefault(pid, []).append(plock)
        self.stats.note_attach()

    def _detach_locked(self, plock: PredicateLock, pid: PageId) -> None:
        if pid not in plock.attachments:
            return
        plock.attachments.discard(pid)
        node_list = self._by_node.get(pid)
        if node_list is not None:
            try:
                node_list.remove(plock)
            except ValueError:
                pass
            if not node_list:
                self._by_node.pop(pid, None)

    def unregister(self, plock: PredicateLock) -> None:
        """Remove the predicate and all of its attachments.

        Used when an insert operation finishes (its insert predicate and
        any unique-search "= key" predicates are released before end of
        transaction, section 8/10.3).
        """
        with self._mutex:
            for pid in list(plock.attachments):
                self._detach_locked(plock, pid)
            txn_list = self._by_txn.get(plock.owner)
            if txn_list is not None and plock in txn_list:
                txn_list.remove(plock)
                if not txn_list:
                    self._by_txn.pop(plock.owner, None)

    def release_transaction(self, xid: int) -> None:
        """Drop every predicate the transaction owns (at termination)."""
        with self._mutex:
            for plock in self._by_txn.pop(xid, []):
                for pid in list(plock.attachments):
                    self._detach_locked(plock, pid)

    # ------------------------------------------------------------------
    # conflict checking
    # ------------------------------------------------------------------
    def conflicting(
        self,
        pid: PageId,
        probe: object,
        *,
        kinds: Iterable[PredicateKind],
        exclude_owner: int,
        before: PredicateLock | None = None,
    ) -> list[PredicateLock]:
        """Predicates on node ``pid`` that conflict with ``probe``.

        Only predicates of the given ``kinds`` owned by other
        transactions are considered; with ``before`` set, only predicates
        *ahead of it* in the node's FIFO list are checked (the fairness
        rule of section 10.3).
        """
        wanted = set(kinds)
        with self._mutex:
            node_list = list(self._by_node.get(pid, ()))
        comparisons = 0
        found: list[PredicateLock] = []
        for plock in node_list:
            if before is not None and plock is before:
                break
            if plock.kind not in wanted or plock.owner == exclude_owner:
                continue
            comparisons += 1
            if self.consistent(plock.pred, probe):
                found.append(plock)
        self.stats.note_check(comparisons, len(found))
        return found

    def predicates_on(self, pid: PageId) -> list[PredicateLock]:
        """FIFO-ordered predicates currently attached to the node."""
        with self._mutex:
            return list(self._by_node.get(pid, ()))

    def predicates_of(self, xid: int) -> list[PredicateLock]:
        """All predicates registered by the transaction."""
        with self._mutex:
            return list(self._by_txn.get(xid, ()))

    def total_predicates(self) -> int:
        """Total live predicates across all transactions."""
        with self._mutex:
            return sum(len(v) for v in self._by_txn.values())

    # ------------------------------------------------------------------
    # structural maintenance (split / BP expansion)
    # ------------------------------------------------------------------
    def replicate_for_split(
        self, orig_pid: PageId, new_pid: PageId, new_bp: object
    ) -> int:
        """Node split: copy to the new sibling every predicate attached
        to the original node that is consistent with the sibling's BP
        (section 4.3, first replication case)."""
        with self._mutex:
            node_list = list(self._by_node.get(orig_pid, ()))
        copied = 0
        for plock in node_list:
            if new_bp is None or self.consistent(plock.pred, new_bp):
                self.attach(plock, new_pid)
                copied += 1
        return copied

    def percolate(
        self,
        parent_pid: PageId,
        child_pid: PageId,
        child_new_bp: object,
        child_old_bp: object,
    ) -> int:
        """BP expansion: push down to the child every parent-attached
        predicate that is consistent with the child's *new* BP but was
        not with its old one (section 4.3, second replication case;
        Figure 4's updateBP)."""
        with self._mutex:
            parent_list = list(self._by_node.get(parent_pid, ()))
        copied = 0
        for plock in parent_list:
            if not self.consistent(plock.pred, child_new_bp):
                continue
            if child_old_bp is not None and self.consistent(
                plock.pred, child_old_bp
            ):
                continue
            self.attach(plock, child_pid)
            copied += 1
        return copied

    # ------------------------------------------------------------------
    # blocking
    # ------------------------------------------------------------------
    @staticmethod
    def wait_for_owners(
        locks: LockManager, waiter_xid: int, plocks: Iterable[PredicateLock]
    ) -> None:
        """Block until every conflicting predicate's owner terminates.

        Implemented as instant-duration S locks on the owners' txn lock
        names; deadlocks between mutually-blocking operations (the
        unique-index race of section 8) surface through the lock
        manager's detector.
        """
        for owner in sorted({p.owner for p in plocks}):
            name = txn_lock_name(owner)
            locks.acquire(waiter_xid, name, LockMode.S)
            locks.release(waiter_xid, name)
