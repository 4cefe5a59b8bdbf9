"""A transaction that wrote nothing owes the log nothing.

Commit and rollback ask the log one question — does this transaction
have a backchain — and a transaction without one releases and changes
state like any other but appends no record and forces no flush
(DESIGN.md §5 "Commit protocol").  Counter gates only: no wall clock.
"""

import pytest

from repro.database import SYSTEM_XID, Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.maintenance import vacuum
from repro.txn.transaction import IsolationLevel, TxnState
from repro.wal.records import CommitRecord, EndRecord


def loaded(n=400, flush_delay=0.0):
    """A preloaded tree; the log turns slow only once the load is in."""
    db = Database(page_capacity=8, lock_timeout=10.0)
    tree = db.create_tree("ro", BTreeExtension())
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    db.log.flush_delay = flush_delay
    return db, tree


def wal_counts(db):
    stats = db.log.stats.snapshot()
    return stats["appends"], stats["flushes"], db.log.flushed_lsn


class TestReadersNeverTouchTheLog:
    @pytest.mark.parametrize("isolation", list(IsolationLevel))
    def test_reads_append_and_force_nothing(self, isolation):
        """200 gets + 50 scans + 20 multi_gets, each its own transaction,
        on a log whose force would cost 50 ms: zero appends, zero
        forces."""
        db, tree = loaded(flush_delay=0.05)
        before = wal_counts(db)
        for i in range(200):
            txn = db.begin(isolation)
            assert tree.search(txn, Interval(i, i)) == [(i, f"r{i}")]
            assert db.commit(txn) == 0
        for i in range(50):
            txn = db.begin(isolation)
            assert len(tree.search(txn, Interval(i * 4, i * 4 + 19))) == 20
            assert db.commit(txn) == 0
        for i in range(20):
            txn = db.begin(isolation)
            keys = list(range(i * 10, i * 10 + 8))
            found = tree.multi_get(txn, keys)
            assert sorted(found) == keys
            assert db.commit(txn) == 0
        assert wal_counts(db) == before
        assert db.txns.active_transactions() == []

    def test_maintenance_that_logged_under_its_own_xid_commits_with_records(
        self,
    ):
        """No search path logs (garbage collection rides on inserts and
        vacuum), but a transaction whose *only* records are redo-only
        GC records still has a backchain and commits the full way."""
        db, tree = loaded(n=40)
        txn = db.begin()
        for i in range(10, 30):
            tree.delete(txn, i, f"r{i}")
        db.commit(txn)
        sweeper = db.begin()
        assert vacuum(tree, sweeper).entries_collected > 0
        flushes = db.log.stats.flushes
        commit_lsn = db.commit(sweeper)
        assert isinstance(db.log.get(commit_lsn), CommitRecord)
        assert db.log.flushed_lsn >= commit_lsn
        assert db.log.stats.flushes <= flushes + 1
        tail = db.log.get(db.log.end_lsn)
        assert isinstance(tail, EndRecord) and tail.xid == sweeper.xid
        # and a vacuum that found nothing to do is a reader
        idle = db.begin()
        vacuum(tree, idle)
        assert db.commit(idle) == 0


class TestCommitMany:
    def test_readers_only_force_nothing(self):
        db, tree = loaded(flush_delay=0.05)
        readers = [db.begin() for _ in range(5)]
        for i, txn in enumerate(readers):
            tree.search(txn, Interval(i, i + 3))
        before = wal_counts(db)
        db.commit_many(readers)
        assert wal_counts(db) == before
        assert all(t.state is TxnState.COMMITTED for t in readers)
        assert all(db.txns.is_committed(t.xid) for t in readers)
        assert all(db.locks.locks_of(t.xid) == set() for t in readers)
        assert db.txns.active_transactions() == []

    def test_mixed_batch_forces_once_and_logs_writers_only(self):
        db, tree = loaded()
        readers = [db.begin() for _ in range(3)]
        for i, txn in enumerate(readers):
            tree.search(txn, Interval(i, i + 3))
        writers = [db.begin() for _ in range(2)]
        for i, txn in enumerate(writers):
            tree.insert(txn, 1000 + i, f"w{i}")
        end = db.log.end_lsn
        flushes = db.log.stats.flushes
        db.commit_many(
            [readers[0], writers[0], readers[1], writers[1], readers[2]]
        )
        assert db.log.stats.flushes == flushes + 1
        tail = [
            (type(r), r.xid) for r in db.log.records_from(end + 1)
        ]
        writer_xids = [t.xid for t in writers]
        assert tail == [(CommitRecord, x) for x in writer_xids] + [
            (EndRecord, x) for x in writer_xids
        ]
        assert db.log.flushed_lsn >= end + len(writers)
        for txn in readers + writers:
            assert txn.state is TxnState.COMMITTED
            assert db.locks.locks_of(txn.xid) == set()


class TestBackchainMapHoldsOnlyLiveTransactions:
    """``LogManager._last_lsn_of`` is read by checkpoint, savepoint and
    the undo driver, all on behalf of live transactions; a transaction's
    End record retires its entry."""

    @staticmethod
    def heads(db):
        return set(db.log._last_lsn_of) - {SYSTEM_XID}

    def test_finished_writers_leave_no_entry(self):
        db, tree = loaded(n=0)
        for i in range(7):
            txn = db.begin()
            tree.insert(txn, i, f"c{i}")
            db.commit(txn)
        for i in range(4):
            txn = db.begin()
            tree.insert(txn, 100 + i, f"a{i}")
            db.rollback(txn)
        batch = [db.begin() for _ in range(3)]
        for i, txn in enumerate(batch):
            tree.insert(txn, 200 + i, f"m{i}")
        db.commit_many(batch)
        reader = db.begin()
        tree.search(reader, Interval(0, 5))
        live = db.begin()
        tree.insert(live, 300, "live")
        assert self.heads(db) == {live.xid}
        # the three readers of the map see the live writer as before
        checkpoint = db.log.get(db.checkpoint())
        assert checkpoint.att == {live.xid: db.log.last_lsn_of(live.xid)}
        savepoint = db.txns.savepoint(live, "sp")
        assert savepoint.lsn == db.log.last_lsn_of(live.xid)
        tree.insert(live, 301, "undone")
        db.txns.rollback_to_savepoint(live, savepoint)
        assert tree.search(live, Interval(300, 310)) == [(300, "live")]
        db.commit(reader)
        db.rollback(live)
        assert self.heads(db) == set()

    def test_restart_undo_retires_the_losers(self):
        db, tree = loaded(n=20)
        losers = [db.begin() for _ in range(2)]
        for i, txn in enumerate(losers):
            tree.insert(txn, 500 + i, f"l{i}")
        db.log.flush()
        db.crash()
        db2 = db.restart({"ro": BTreeExtension()})
        assert db2.recovery_report.losers == [t.xid for t in losers]
        assert self.heads(db2) == set()
