"""Transactions and savepoints.

A :class:`Transaction` is the unit of atomicity and of two-phase locking.
It tracks, besides its id and state:

* which of its **signaling locks** on tree nodes (section 7.2) a node
  visit must not release: (a) the insert target leaf's, which lives to
  end of transaction, and (b) those *pinned* by a savepoint (section
  10.2), which must survive until the savepoint can no longer be rolled
  back to — the holds themselves are counted in
  :class:`~repro.lock.signaling.SignalingLocks`;
* its open **cursors**, whose positions must be restorable on partial
  rollback (section 10.2);
* its **savepoints**: the log position to roll back to plus snapshots of
  the cursor stacks and the then-held signaling locks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import TransactionStateError


class IsolationLevel(Enum):
    """Supported degrees of isolation ([Gra78], section 4).

    ``REPEATABLE_READ`` is Degree 3 (the paper's subject): record locks
    held to end of transaction plus node-attached predicate locks.
    ``READ_COMMITTED`` is Degree 2: instant-duration record locks, no
    predicates.  ``READ_UNCOMMITTED`` is Degree 1: no read locks at all
    — scans may see uncommitted data; provided for completeness and as
    the fastest possible read path.
    """

    READ_UNCOMMITTED = "read-uncommitted"
    READ_COMMITTED = "read-committed"
    REPEATABLE_READ = "repeatable-read"


class TxnState(Enum):
    """Transaction lifecycle states."""

    ACTIVE = "active"
    ROLLING_BACK = "rolling-back"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(eq=False)
class Savepoint:
    """A rollback target inside a transaction (section 10.2).

    Identity semantics (``eq=False``): two savepoints taken at the same
    log position are still distinct rollback targets.
    """

    name: str
    lsn: int
    #: cursor -> snapshot of its traversal stack at savepoint time
    cursor_stacks: dict = field(default_factory=dict)
    #: signaling-lock names held at savepoint time: must not be released
    #: by node visits until the savepoint is popped
    pinned_signaling: set = field(default_factory=set)


class Transaction:
    """One transaction.  Created by :class:`~repro.txn.manager.TransactionManager`."""

    def __init__(
        self, xid: int, isolation: IsolationLevel = IsolationLevel.REPEATABLE_READ
    ) -> None:
        self.xid = xid
        self.isolation = isolation
        self.state = TxnState.ACTIVE
        self._mutex = threading.Lock()
        #: signaling locks that must survive to end of transaction
        #: (the insert target leaf rule, section 7.2 / section 9)
        self._eot_signaling: set[object] = set()
        #: open cursors registered for savepoint restoration
        self._cursors: list = []
        self.savepoints: list[Savepoint] = []

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """True while the transaction can still be committed or rolled back."""
        return self.state in (TxnState.ACTIVE, TxnState.ROLLING_BACK)

    def require_active(self) -> None:
        """Raise unless the transaction accepts new operations."""
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.xid} is {self.state.value}, not active"
            )

    @property
    def repeatable_read(self) -> bool:
        """True at Degree 3 isolation."""
        return self.isolation is IsolationLevel.REPEATABLE_READ

    # ------------------------------------------------------------------
    # signaling locks a node visit must keep (the holds themselves live
    # in repro.lock.signaling.SignalingLocks)
    # ------------------------------------------------------------------
    def pin_signaling_to_eot(self, name: object) -> None:
        """Retain a signaling lock until end of transaction (§7.2)."""
        self._eot_signaling.add(name)

    def keeps_signaling(self, name: object) -> bool:
        """True if the insert-target rule or a live savepoint pins
        ``name``, so a node visit must not drop its hold.  Lock-free: the
        set and list it reads change only by single atomic steps."""
        for savepoint in self.savepoints:
            if name in savepoint.pinned_signaling:
                return True
        return name in self._eot_signaling

    # ------------------------------------------------------------------
    # cursors / savepoints
    # ------------------------------------------------------------------
    def register_cursor(self, cursor: object) -> None:
        """Track an open cursor for savepoint position snapshots."""
        with self._mutex:
            self._cursors.append(cursor)

    def unregister_cursor(self, cursor: object) -> None:
        """Stop tracking a closed cursor."""
        with self._mutex:
            if cursor in self._cursors:
                self._cursors.remove(cursor)

    def open_cursors(self) -> list:
        """The currently registered cursors."""
        with self._mutex:
            return list(self._cursors)

    def add_savepoint(self, savepoint: Savepoint) -> None:
        """Register a savepoint; its signaling locks are pinned while it
        lives."""
        with self._mutex:
            self.savepoints.append(savepoint)

    def pop_savepoints_after(self, savepoint: Savepoint) -> None:
        """Discard savepoints established after ``savepoint``."""
        with self._mutex:
            while self.savepoints and self.savepoints[-1] is not savepoint:
                self.savepoints.pop()

    def release_savepoint(self, savepoint: Savepoint) -> None:
        """Drop a savepoint, and with it its pins."""
        with self._mutex:
            if savepoint in self.savepoints:
                self.savepoints.remove(savepoint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction(xid={self.xid}, {self.isolation.value}, "
            f"{self.state.value})"
        )
