"""Unit tests for transaction lifecycle: begin/commit/rollback."""

import pytest

from repro.errors import TransactionStateError
from repro.ext.btree import BTreeExtension, Interval
from repro.lock.modes import LockMode
from repro.txn.manager import txn_lock_name
from repro.txn.transaction import IsolationLevel, TxnState
from repro.wal.records import CommitRecord, EndRecord


class TestLifecycle:
    def test_begin_assigns_increasing_xids(self, db):
        t1 = db.begin()
        t2 = db.begin()
        assert t2.xid == t1.xid + 1
        assert t1.is_active and t2.is_active

    def test_begin_takes_own_txn_lock(self, db):
        txn = db.begin()
        assert db.locks.held_mode(txn.xid, txn_lock_name(txn.xid)) == (
            LockMode.X
        )

    def test_commit_writes_and_forces_commit_record(self, db):
        tree = db.create_tree("bt", BTreeExtension())
        txn = db.begin()
        tree.insert(txn, 1, "a")
        commit_lsn = db.commit(txn)
        assert txn.state is TxnState.COMMITTED
        records = [r for r in db.log.records_from(1) if r.xid == txn.xid]
        commits = [r for r in records if isinstance(r, CommitRecord)]
        ends = [r for r in records if isinstance(r, EndRecord)]
        assert len(commits) == 1 and len(ends) == 1
        assert commits[0].lsn == commit_lsn
        assert db.log.flushed_lsn >= commit_lsn
        assert ends[0].lsn > commit_lsn

    def test_read_only_commit_logs_and_forces_nothing(self, db):
        tree = db.create_tree("bt", BTreeExtension())
        txn = db.begin()
        assert tree.search(txn, Interval(0, 10)) == []
        db.locks.acquire(txn.xid, ("rid", "x"), LockMode.S)
        assert db.tree("bt").predicates.predicates_of(txn.xid)
        end, flushed = db.log.end_lsn, db.log.flushed_lsn
        flushes = db.log.stats.flushes
        assert db.commit(txn) == 0
        assert txn.state is TxnState.COMMITTED
        assert db.txns.is_committed(txn.xid)
        assert db.txns.active_transactions() == []
        assert db.locks.locks_of(txn.xid) == set()
        assert not db.tree("bt").predicates.predicates_of(txn.xid)
        assert db.log.end_lsn == end
        assert db.log.flushed_lsn == flushed
        assert db.log.stats.flushes == flushes
        assert all(r.xid != txn.xid for r in db.log.records_from(1))

    def test_commit_releases_locks(self, db):
        txn = db.begin()
        db.locks.acquire(txn.xid, ("rid", "x"), LockMode.X)
        db.commit(txn)
        assert db.locks.holders(("rid", "x")) == {}

    def test_rollback_writes_abort_and_end(self, db):
        tree = db.create_tree("bt", BTreeExtension())
        txn = db.begin()
        tree.insert(txn, 1, "a")
        db.rollback(txn)
        assert txn.state is TxnState.ABORTED
        kinds = [
            type(r).__name__
            for r in db.log.records_from(1)
            if r.xid == txn.xid
        ]
        assert kinds.count("AbortRecord") == 1
        assert kinds[-1] == "EndRecord"
        assert kinds.index("AbortRecord") < kinds.index("RemoveLeafEntryClr")

    def test_read_only_rollback_logs_nothing(self, db):
        tree = db.create_tree("bt", BTreeExtension())
        txn = db.begin()
        assert tree.search(txn, Interval(0, 10)) == []
        end, flushed = db.log.end_lsn, db.log.flushed_lsn
        db.rollback(txn)
        assert txn.state is TxnState.ABORTED
        assert db.txns.is_finished(txn.xid)
        assert not db.txns.is_committed(txn.xid)
        assert db.locks.locks_of(txn.xid) == set()
        assert not db.tree("bt").predicates.predicates_of(txn.xid)
        assert (db.log.end_lsn, db.log.flushed_lsn) == (end, flushed)

    def test_double_commit_raises(self, db):
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionStateError):
            db.commit(txn)

    def test_rollback_after_commit_raises(self, db):
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionStateError):
            db.rollback(txn)

    def test_committed_xids_tracked(self, db):
        t1 = db.begin()
        t2 = db.begin()
        db.commit(t1)
        db.rollback(t2)
        assert db.txns.is_committed(t1.xid)
        assert not db.txns.is_committed(t2.xid)
        assert db.txns.is_finished(t2.xid)

    def test_oldest_active(self, db):
        assert db.txns.oldest_active_xid() is None
        t1 = db.begin()
        t2 = db.begin()
        assert db.txns.oldest_active_xid() == t1.xid
        db.commit(t1)
        assert db.txns.oldest_active_xid() == t2.xid
        db.commit(t2)


class TestRollbackUndoesWork:
    def test_rollback_undoes_multiple_operations_lifo(self, db):
        tree = db.create_tree("bt", BTreeExtension())
        setup = db.begin()
        tree.insert(setup, 50, "keep")
        db.commit(setup)
        txn = db.begin()
        tree.insert(txn, 1, "a")
        tree.delete(txn, 50, "keep")
        tree.insert(txn, 2, "b")
        db.rollback(txn)
        check = db.begin()
        assert tree.search(check, Interval(0, 100)) == [(50, "keep")]
        db.commit(check)

    def test_rollback_is_idempotent_per_record(self, db):
        """CLRs make repeated rollback attempts safe: a second manual
        undo pass must find nothing left to undo."""
        tree = db.create_tree("bt", BTreeExtension())
        txn = db.begin()
        tree.insert(txn, 1, "a")
        db.rollback(txn)
        clrs = [
            r
            for r in db.log.records_from(1)
            if r.undo_next is not None and r.xid == txn.xid
        ]
        assert clrs  # compensation was logged
        # walking the chain back from the End record hits only CLRs and
        # lands before any undoable record
        lsn = [r for r in db.log.records_from(1) if r.xid == txn.xid][-1].lsn
        seen_undoable = 0
        while lsn:
            record = db.log.get(lsn)
            if record.undo_next is not None:
                lsn = record.undo_next
                continue
            if record.undoable:
                seen_undoable += 1
            lsn = record.prev_lsn
        assert seen_undoable == 0


class TestIsolationLevels:
    def test_default_is_repeatable_read(self, db):
        txn = db.begin()
        assert txn.isolation is IsolationLevel.REPEATABLE_READ
        assert txn.repeatable_read

    def test_read_committed(self, db):
        txn = db.begin(IsolationLevel.READ_COMMITTED)
        assert not txn.repeatable_read
