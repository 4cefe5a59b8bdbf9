"""Database assembly: catalog errors, wiring, shutdown."""

import pytest

from repro.database import Database
from repro.errors import ReproError, WALError
from repro.ext.btree import BTreeExtension, Interval
from repro.wal.records import CommitRecord


class TestCatalog:
    def test_duplicate_tree_name_raises(self):
        db = Database()
        db.create_tree("t", BTreeExtension())
        with pytest.raises(ReproError):
            db.create_tree("t", BTreeExtension())

    def test_unknown_tree_raises(self):
        db = Database()
        with pytest.raises(ReproError):
            db.tree("missing")

    def test_tree_lookup(self):
        db = Database()
        tree = db.create_tree("t", BTreeExtension())
        assert db.tree("t") is tree

    def test_create_tree_is_durable_immediately(self):
        db = Database()
        db.create_tree("t", BTreeExtension())
        db.crash()  # immediately, before any transaction
        db2 = db.restart({"t": BTreeExtension()})
        assert "t" in db2.trees


class TestUndoExecutorWiring:
    def test_unknown_record_type_raises(self):
        db = Database()

        class WeirdRecord(CommitRecord):
            pass

        record = WeirdRecord(xid=1)
        record.undoable = True
        with pytest.raises(WALError):
            db._undo_record(record, 1)

    def test_release_transaction_spans_trees(self):
        db = Database()
        a = db.create_tree("a", BTreeExtension())
        b = db.create_tree("b", BTreeExtension())
        txn = db.begin()
        a.search(txn, Interval(0, 10))
        b.search(txn, Interval(0, 10))
        assert a.predicates.predicates_of(txn.xid)
        assert b.predicates.predicates_of(txn.xid)
        db.commit(txn)
        assert not a.predicates.predicates_of(txn.xid)
        assert not b.predicates.predicates_of(txn.xid)


class TestShutdown:
    def test_shutdown_flushes_everything(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        for i in range(30):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.shutdown()
        assert db.pool.dirty_page_table() == {}
        assert db.log.flushed_lsn == db.log.end_lsn
        assert db.log.master_lsn > 0

    def test_reopen_after_clean_shutdown_redoes_little(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        for i in range(30):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.shutdown()
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        report = db2.recovery_report
        # everything was already on disk: redo applied (almost) nothing
        assert report.redone_records <= 2
        txn = db2.begin()
        assert len(db2.tree("t").search(txn, Interval(0, 29))) == 30
        db2.commit(txn)
