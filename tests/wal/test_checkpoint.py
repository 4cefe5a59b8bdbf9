"""Fuzzy checkpoints: content, master pointer, interaction with crash."""

import threading

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree
from repro.sync.hooks import Gate
from repro.wal.records import (
    CheckpointRecord,
    PageImageClr,
    RootSplitRecord,
    TreeCreateRecord,
)


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
        db.shutdown()  # flush everything + checkpoint
        db.crash()  # loses nothing that matters
        db2 = db.restart({"cp": BTreeExtension()})
        report = db2.recovery_report
        assert (report.pages_read, report.pages_written) == (0, 0)
        txn = db2.begin()
        assert len(db2.tree("cp").search(txn, Interval(0, 19))) == 20
        db2.commit(txn)


def search_all(db, name="cp"):
    txn = db.begin()
    rows = db.tree(name).search(txn, Interval(-1, 10**6))
    db.commit(txn)
    return sorted(rows)


def checkpoint_while_parked(db, wanted, work, then=lambda: None):
    """Park ``work`` right after it appends a record ``wanted`` accepts
    (so between ``append`` and ``mark_dirty``, holding whatever it had
    latched), run ``then``, take a checkpoint on a second thread, let
    go.  Returns ``(checkpoint record, parked record)``.

    A checkpoint that reads the dirty page table without the frame
    latches finishes while the writer is parked; one that takes them
    cannot finish before the writer is released, so the outcome does
    not depend on timing.
    """
    log, gate, parked = db.log, Gate(), []
    append, append_many = log.append, log.append_many

    def park(records):
        hit = [r for r in records if wanted(r)]
        if hit and not parked:
            parked.append(hit[0])
            gate.block()

    def parking_append(record):
        lsn = append(record)
        park([record])
        return lsn

    def parking_append_many(records):
        lsns = append_many(records)
        park(records)
        return lsns

    log.append, log.append_many = parking_append, parking_append_many
    taken = []
    writer = threading.Thread(target=work)
    checkpointer = threading.Thread(
        target=lambda: taken.append(db.checkpoint())
    )
    try:
        writer.start()
        assert gate.wait_blocked()
        then()
        checkpointer.start()
        checkpointer.join(0.3)
    finally:
        gate.open()
        writer.join(10)
        checkpointer.join(10)
        del log.append, log.append_many
    assert not writer.is_alive() and not checkpointer.is_alive()
    return db.log.get(taken[0]), parked[0]


def tree_rooted_in_last_shard(db):
    """A tree whose root sits in the pool's last shard: the pages it
    allocates next wrap round to shards a sweep visits *before* the
    root's, so blocking on the root's latch comes too late for them."""
    tree = db.create_tree("t0", BTreeExtension())
    while db.pool.shard_of(tree.root_pid + 1) != 0:
        tree = db.create_tree(f"t{len(db.trees)}", BTreeExtension())
    return tree


class TestCheckpointRaces:
    """The tables are read while the log grows; ``begin_lsn`` and the
    frame latches make that harmless.  Each test forces one order."""

    def test_first_record_between_att_read_and_append_is_a_loser(self):
        db, tree = build()
        late = db.begin()
        read_dpt = db.pool.dirty_page_table

        def insert_then_read_dpt():
            # checkpoint() has read the ATT by now and has not appended
            tree.insert(late, 2, "lose")
            return read_dpt()

        db.pool.dirty_page_table = insert_then_read_dpt
        checkpoint = db.log.get(db.checkpoint())
        assert late.xid not in checkpoint.att  # the table did miss it
        first = db.log.last_lsn_of(late.xid)
        db.log.flush()
        db.crash()
        db2 = db.restart({"cp": BTreeExtension()})
        assert db2.recovery_report.losers == [late.xid]
        assert db2.recovery_report.undone_records == 1
        assert search_all(db2) == []
        # ... because analysis started below the record, not at it
        assert checkpoint.begin_lsn <= first < checkpoint.lsn

    def test_writer_between_append_and_mark_dirty_is_in_the_dpt(self):
        db = Database(page_capacity=4)
        a = db.create_tree("a", BTreeExtension())
        b = db.create_tree("b", BTreeExtension())
        db.pool.flush_all()

        def writer():
            txn = db.begin()
            a.insert(txn, 1, "committed")
            db.commit(txn)

        def dirty_a_second_page():
            txn = db.begin()
            b.insert(txn, 1, "later")
            db.commit(txn)

        checkpoint, parked = checkpoint_while_parked(
            db,
            lambda r: getattr(r, "tree", None) == "a",
            writer,
            dirty_a_second_page,
        )
        assert checkpoint.dpt[a.root_pid] == parked.lsn
        assert checkpoint.dpt[b.root_pid] > parked.lsn
        db.crash()
        db2 = db.restart({"a": BTreeExtension(), "b": BTreeExtension()})
        assert search_all(db2, "a") == [(1, "committed")]
        assert search_all(db2, "b") == [(1, "later")]

    def test_pages_born_by_a_root_split_are_in_the_dpt(self):
        """A page a record brings into being must be resident and
        latched *before* that record is appended, or a checkpoint that
        has already swept its shard never hears of it."""
        db = Database(page_capacity=4)
        tree = tree_rooted_in_last_shard(db)
        txn = db.begin()
        for i in range(4):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.pool.flush_all()

        def writer():
            txn = db.begin()
            tree.insert(txn, 4, "r4")  # splits the full root leaf
            db.commit(txn)

        checkpoint, split = checkpoint_while_parked(
            db, lambda r: isinstance(r, RootSplitRecord), writer
        )
        for pid in split.affected_pages():
            assert checkpoint.dpt[pid] == split.lsn
        db.crash()
        db2 = db.restart({name: BTreeExtension() for name in db.trees})
        assert search_all(db2, tree.name) == [(i, f"r{i}") for i in range(5)]
        assert check_tree(db2.tree(tree.name)).ok

    def test_pages_born_by_a_bulk_load_are_in_the_dpt(self):
        db = Database(page_capacity=4)
        tree = tree_rooted_in_last_shard(db)
        db.pool.flush_all()
        pairs = [(i, f"r{i}") for i in range(10)]

        def writer():
            txn = db.begin()
            tree.bulk_load(txn, pairs)
            db.commit(txn)

        checkpoint, image = checkpoint_while_parked(
            db, lambda r: isinstance(r, PageImageClr), writer
        )
        assert checkpoint.dpt[image.page_id] == image.lsn
        db.crash()
        db2 = db.restart({name: BTreeExtension() for name in db.trees})
        assert search_all(db2, tree.name) == pairs
        assert check_tree(db2.tree(tree.name)).ok

    def test_root_born_by_create_tree_is_in_the_dpt(self):
        db, _ = build()
        db.pool.flush_all()
        checkpoint, created = checkpoint_while_parked(
            db,
            lambda r: isinstance(r, TreeCreateRecord),
            lambda: db.create_tree("late", BTreeExtension()),
        )
        assert checkpoint.dpt == {created.root_pid: created.lsn}
        db.crash()
        db2 = db.restart({"cp": BTreeExtension(), "late": BTreeExtension()})
        assert search_all(db2, "late") == []

    def test_rec_lsn_of_a_run_is_its_first_record(self):
        """One ``mark_dirty`` covers a whole leaf run; the recLSN it
        leaves must be the run's first LSN, not its last."""
        db, tree = build()
        db.pool.flush_all()
        txn = db.begin()
        tree.multi_put(txn, [(1, "a"), (2, "b"), (3, "c")])
        db.commit(txn)
        first = next(
            r.lsn for r in db.log.records_from(1) if r.xid == txn.xid
        )
        assert db.log.get(db.checkpoint()).dpt == {tree.root_pid: first}
        db.crash()
        db2 = db.restart({"cp": BTreeExtension()})
        assert search_all(db2) == [(1, "a"), (2, "b"), (3, "c")]
