"""Fuzzy checkpoints: content, master pointer, interaction with crash."""

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.wal.records import CheckpointRecord


def build():
    db = Database(page_capacity=4)
    tree = db.create_tree("cp", BTreeExtension())
    return db, tree


class TestCheckpointContents:
    def test_checkpoint_captures_active_transactions(self):
        db, tree = build()
        live = db.begin()
        tree.insert(live, 1, "r1")
        lsn = db.checkpoint()
        record = db.log.get(lsn)
        assert isinstance(record, CheckpointRecord)
        assert live.xid in record.att
        assert record.att[live.xid] == db.log.last_lsn_of(live.xid)
        db.rollback(live)

    def test_checkpoint_captures_dirty_pages(self):
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        lsn = db.checkpoint()
        record = db.log.get(lsn)
        assert record.dpt  # something is dirty
        db.pool.flush_all()
        lsn2 = db.checkpoint()
        assert db.log.get(lsn2).dpt == {}

    def test_master_pointer_updated_and_durable(self):
        db, tree = build()
        lsn = db.checkpoint()
        assert db.log.master_lsn == lsn
        assert db.log.flushed_lsn >= lsn

    def test_checkpoint_is_fuzzy(self):
        """A checkpoint must not force dirty pages out."""
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        dirty_before = set(db.pool.dirty_page_table())
        db.checkpoint()
        assert set(db.pool.dirty_page_table()) == dirty_before


class TestCheckpointRecovery:
    def test_active_txn_at_checkpoint_rolled_back(self):
        """A transaction alive at checkpoint time and dead at the crash
        must appear in the recovered ATT (via the checkpoint) and be
        undone."""
        db, tree = build()
        setup = db.begin()
        tree.insert(setup, 1, "keep")
        db.commit(setup)
        loser = db.begin()
        tree.insert(loser, 2, "lose")
        db.pool.flush_all()
        db.checkpoint()
        # no further records from the loser; it dies with the crash
        db.crash()
        db2 = db.restart({"cp": BTreeExtension()})
        tree2 = db2.tree("cp")
        txn = db2.begin()
        rows = tree2.search(txn, Interval(0, 10))
        db2.commit(txn)
        assert rows == [(1, "keep")]

    def test_reader_open_at_checkpoint_is_no_loser(self):
        """A transaction that has not logged stays out of the ATT: if it
        commits read-only the log never mentions it again, and restart
        must not name it a loser or write an End record for it."""
        db, tree = build()
        setup = db.begin()
        tree.insert(setup, 1, "keep")
        db.commit(setup)
        reader = db.begin()
        assert tree.search(reader, Interval(0, 10)) == [(1, "keep")]
        lsn = db.checkpoint()
        assert reader.xid not in db.log.get(lsn).att
        assert db.commit(reader) == 0
        writer = db.begin()
        tree.insert(writer, 20, "after")
        db.commit(writer)
        db.crash()
        db2 = db.restart({"cp": BTreeExtension()})
        assert db2.recovery_report.losers == []
        assert db2.recovery_report.undone_records == 0
        assert all(r.xid != reader.xid for r in db2.log.records_from(1))
        txn = db2.begin()
        assert db2.tree("cp").search(txn, Interval(0, 30)) == [
            (1, "keep"),
            (20, "after"),
        ]
        db2.commit(txn)

    def test_reader_at_checkpoint_that_writes_later_is_undone(self):
        """Left out of the ATT, found again by the analysis scan: its
        first record lies after the checkpoint."""
        db, tree = build()
        late = db.begin()
        tree.search(late, Interval(0, 10))
        db.checkpoint()
        tree.insert(late, 2, "lose")
        db.log.flush()
        db.crash()
        db2 = db.restart({"cp": BTreeExtension()})
        assert db2.recovery_report.losers == [late.xid]
        txn = db2.begin()
        assert db2.tree("cp").search(txn, Interval(0, 10)) == []
        db2.commit(txn)

    def test_work_after_checkpoint_redone(self):
        db, tree = build()
        db.checkpoint()
        txn = db.begin()
        tree.insert(txn, 5, "after")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"cp": BTreeExtension()})
        txn = db2.begin()
        assert db2.tree("cp").search(txn, Interval(5, 5)) == [
            (5, "after")
        ]
        db2.commit(txn)

    def test_repeated_checkpoints_use_latest(self):
        db, tree = build()
        db.checkpoint()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        db.pool.flush_all()
        second = db.checkpoint()
        assert db.log.master_lsn == second
        db.crash()
        db2 = db.restart({"cp": BTreeExtension()})
        txn = db2.begin()
        assert db2.tree("cp").search(txn, Interval(1, 1)) == [(1, "r1")]
        db2.commit(txn)

    def test_shutdown_then_reopen_is_instant_consistent(self):
        db, tree = build()
        txn = db.begin()
        for i in range(20):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.shutdown()  # checkpoint + flush everything
        db.crash()  # loses nothing that matters
        db2 = db.restart({"cp": BTreeExtension()})
        txn = db2.begin()
        assert len(db2.tree("cp").search(txn, Interval(0, 19))) == 20
        db2.commit(txn)
