"""The transaction manager: begin / commit / rollback / savepoints.

Commit forces the transaction's Commit record (WAL durability), releases
its predicates and locks, and logs an End record; a transaction whose
log backchain is empty wrote nothing, so it only releases — no record,
no force (DESIGN.md §5 "Commit protocol").  Rollback walks the
transaction's log backchain, dispatching each undoable record to the
**undo executor** (installed by the database assembly): page-oriented
records compensate in place, leaf content records undo *logically*
through the owning tree (section 9.2).  Compensation records carry
``undo_next``, so a rollback interrupted by a crash never undoes the
same record twice, and nested-top-action DummyClrs make structure
modifications invisible to rollback (section 9.1).

Blocking "on a predicate" (section 10.3) is implemented here exactly as
the paper suggests: every transaction X-locks its own id at start; an
operation that must wait for transaction T requests an S lock on
``("txn", T)``, which is granted only once T commits or aborts.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import TransactionStateError
from repro.lock.manager import LockManager
from repro.lock.modes import LockMode
from repro.lock.signaling import SignalingLocks
from repro.txn.transaction import (
    IsolationLevel,
    Savepoint,
    Transaction,
    TxnState,
)
from repro.wal.log import LogManager
from repro.wal.records import (
    NULL_LSN,
    AbortRecord,
    CommitRecord,
    EndRecord,
    LogRecord,
)


def txn_lock_name(xid: int) -> tuple[str, int]:
    """Lock name under which a transaction's lifetime is visible."""
    return ("txn", xid)


class TransactionManager:
    """Creates transactions and drives commit / rollback."""

    def __init__(
        self,
        log: LogManager,
        locks: LockManager,
        signaling: SignalingLocks,
        predicates: "object | None" = None,
    ) -> None:
        self.log = log
        self.locks = locks
        self.signaling = signaling
        #: the predicate manager; optional so the storage layers can be
        #: tested without one (set by the database assembly)
        self.predicates = predicates
        #: installed by the database assembly: performs the undo of one
        #: log record (writing its CLR) on behalf of a rolling-back txn
        self.undo_executor: Callable[[LogRecord, Transaction], None] | None = None
        self._mutex = threading.Lock()
        self._next_xid = 1
        self._active: dict[int, Transaction] = {}
        self.committed_xids: set[int] = set()
        self.aborted_xids: set[int] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(
        self, isolation: IsolationLevel = IsolationLevel.REPEATABLE_READ
    ) -> Transaction:
        """Create a new transaction and take its self-lock."""
        with self._mutex:
            xid = self._next_xid
            self._next_xid += 1
        txn = Transaction(xid, isolation)
        # Every transaction X-locks its own id so others can block on its
        # termination (the "block on a predicate" device of §10.3).
        self.locks.acquire(xid, txn_lock_name(xid), LockMode.X)
        with self._mutex:
            self._active[xid] = txn
        return txn

    def commit(self, txn: Transaction) -> int:
        """Commit ``txn``; returns its commit LSN, 0 if it never logged.

        A writer forces its Commit record, releases, then logs End; a
        transaction with no backchain only releases.
        """
        txn.require_active()
        lsn = NULL_LSN
        if self.log.last_lsn_of(txn.xid) != NULL_LSN:
            lsn = self.log.append(CommitRecord(xid=txn.xid))
            self.log.flush(lsn)  # durable before it is acknowledged
        self._finish(txn, TxnState.COMMITTED)
        if lsn != NULL_LSN:
            self.log.append(EndRecord(xid=txn.xid))
        return lsn

    def commit_many(self, txns: "list[Transaction]") -> None:
        """Commit a batch with one log force covering every commit record.

        The commit records of the members that logged are appended via
        the batched log path, then a single flush to the highest LSN
        makes the whole batch durable at once — the caller-driven
        analogue of group commit, for callers holding several
        ready-to-commit transactions.  Finish work (lock/predicate
        release, End records) follows per transaction, in order.  A
        member that never logged gets no record; a batch of them, no force.
        """
        for txn in txns:
            txn.require_active()
        last = self.log.last_lsn_of
        logged = [t.xid for t in txns if last(t.xid) != NULL_LSN]
        if logged:
            lsns = self.log.append_many(
                [CommitRecord(xid=xid) for xid in logged]
            )
            self.log.flush(lsns[-1])
        for txn in txns:
            self._finish(txn, TxnState.COMMITTED)
        self.log.append_many([EndRecord(xid=xid) for xid in logged])

    def rollback(self, txn: Transaction) -> None:
        """Abort ``txn``: undo all its effects, then release everything."""
        if txn.state in (TxnState.COMMITTED, TxnState.ABORTED):
            raise TransactionStateError(
                f"cannot roll back finished transaction {txn.xid}"
            )
        txn.state = TxnState.ROLLING_BACK
        logged = self.log.last_lsn_of(txn.xid) != NULL_LSN
        if logged:
            self.log.append(AbortRecord(xid=txn.xid))
            self._undo_back_to(txn, NULL_LSN)
        self._finish(txn, TxnState.ABORTED)
        if logged:
            self.log.append(EndRecord(xid=txn.xid))

    def _finish(self, txn: Transaction, state: TxnState) -> None:
        if self.predicates is not None:
            self.predicates.release_transaction(txn.xid)
        self.locks.release_all(txn.xid)
        self.signaling.release(txn.xid)
        txn.state = state
        with self._mutex:
            self._active.pop(txn.xid, None)
            if state is TxnState.COMMITTED:
                self.committed_xids.add(txn.xid)
            else:
                self.aborted_xids.add(txn.xid)

    # ------------------------------------------------------------------
    # savepoints (section 10.2)
    # ------------------------------------------------------------------
    def savepoint(self, txn: Transaction, name: str = "") -> Savepoint:
        """Establish a savepoint: log position + cursor + signaling state."""
        txn.require_active()
        stacks = {
            cursor: cursor.snapshot_stack() for cursor in txn.open_cursors()
        }
        # Signaling locks live when the savepoint is established must not
        # be released by later node visits (section 10.2): the rollback
        # may resurrect the stacked pointers they protect.
        savepoint = Savepoint(
            name=name,
            lsn=self.log.last_lsn_of(txn.xid),
            cursor_stacks=stacks,
            pinned_signaling=self.signaling.names_of(txn.xid),
        )
        txn.add_savepoint(savepoint)
        return savepoint

    def rollback_to_savepoint(
        self, txn: Transaction, savepoint: Savepoint
    ) -> None:
        """Partial rollback: undo work done after the savepoint.

        Locks are *not* released (standard strict-2PL savepoint
        semantics); cursor positions are restored from the snapshot.
        """
        txn.require_active()
        if savepoint not in txn.savepoints:
            raise TransactionStateError(
                f"savepoint {savepoint.name!r} is not live in txn {txn.xid}"
            )
        txn.state = TxnState.ROLLING_BACK
        try:
            self._undo_back_to(txn, savepoint.lsn)
        finally:
            txn.state = TxnState.ACTIVE
        for cursor, stack in savepoint.cursor_stacks.items():
            cursor.restore_stack(stack)
        txn.pop_savepoints_after(savepoint)

    # ------------------------------------------------------------------
    # undo driver
    # ------------------------------------------------------------------
    def _undo_back_to(self, txn: Transaction, stop_lsn: int) -> None:
        """Undo ``txn``'s records with lsn > stop_lsn, newest first.

        Follows the ARIES backchain: compensation records are never
        undone, their ``undo_next`` jumps over already-undone (or
        atomically-committed) work.
        """
        lsn = self.log.last_lsn_of(txn.xid)
        while lsn > stop_lsn and lsn != NULL_LSN:
            record = self.log.get(lsn)
            if record.undo_next is not None:
                lsn = record.undo_next
                continue
            if record.undoable:
                if self.undo_executor is None:
                    raise TransactionStateError(
                        "no undo executor installed; cannot roll back"
                    )
                self.undo_executor(record, txn)
            lsn = record.prev_lsn

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def active_transactions(self) -> list[Transaction]:
        """Transactions currently in flight."""
        with self._mutex:
            return list(self._active.values())

    def is_committed(self, xid: int) -> bool:
        """True once ``xid`` committed (garbage collection's visibility test)."""
        with self._mutex:
            return xid in self.committed_xids

    def is_finished(self, xid: int) -> bool:
        """True once ``xid`` committed or aborted."""
        with self._mutex:
            return xid in self.committed_xids or xid in self.aborted_xids

    def oldest_active_xid(self) -> int | None:
        """Smallest in-flight xid, or ``None`` when quiesced."""
        with self._mutex:
            if not self._active:
                return None
            return min(self._active)

    def restore_counters(self, next_xid: int) -> None:
        """Advance the xid counter past recovered transactions."""
        with self._mutex:
            self._next_xid = max(self._next_xid, next_xid)
