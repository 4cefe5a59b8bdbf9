"""Table 1 reproduction: every log record type, exercised end-to-end.

For each of the ten record types in Table 1 of the paper, a scenario
generates the record through the normal tree code, then the database is
crashed (losing all buffered pages) and restarted; the test asserts that

* the record type actually appeared in the log (the scenario is real),
* redo reconstructs a structurally consistent tree with exactly the
  committed contents (redo column), and
* where the record is transactional/undoable, rolling back or crashing
  an uncommitted transaction removes its effects (undo column).
"""

from __future__ import annotations

import itertools

import pytest

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree
from repro.gist.maintenance import vacuum
from repro.txn.transaction import IsolationLevel
from repro.wal.records import AddLeafEntryRecord, GarbageCollectionRecord


def build_db():
    db = Database(page_capacity=4, lock_timeout=10.0)
    tree = db.create_tree("t", BTreeExtension())
    return db, tree


def record_types(db):
    return {type(r).__name__ for r in db.log.records_from(1)}


def crash_restart_and_verify(db, expected: dict):
    db.crash()
    db2 = db.restart({"t": BTreeExtension()})
    tree2 = db2.tree("t")
    report = check_tree(tree2)
    assert report.ok, report.errors
    txn = db2.begin()
    found = dict(
        (rid, key)
        for key, rid in tree2.search(txn, Interval(-1, 10**9))
    )
    db2.commit(txn)
    assert found == expected
    return db2, tree2


class TestContentRecords:
    def test_add_leaf_entry_redo(self):
        db, tree = build_db()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        assert "AddLeafEntryRecord" in record_types(db)
        crash_restart_and_verify(db, {"r1": 1})

    def test_add_leaf_entry_logical_undo_at_restart(self):
        db, tree = build_db()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        loser = db.begin()
        tree.insert(loser, 2, "r2")  # never committed
        db.log.flush()  # the add record survives; commit never written
        crash_restart_and_verify(db, {"r1": 1})

    def test_add_leaf_entry_logical_undo_at_rollback(self):
        db, tree = build_db()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.rollback(txn)
        assert any(
            isinstance(r, AddLeafEntryRecord)
            for r in db.log.records_from(1)
        )
        txn = db.begin()
        assert tree.search(txn, Interval(0, 10)) == []
        db.commit(txn)

    def test_mark_leaf_entry_redo(self):
        db, tree = build_db()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        tree.insert(txn, 2, "r2")
        db.commit(txn)
        txn = db.begin()
        tree.delete(txn, 1, "r1")
        db.commit(txn)
        assert "MarkLeafEntryRecord" in record_types(db)
        crash_restart_and_verify(db, {"r2": 2})

    def test_mark_leaf_entry_undo_at_restart(self):
        db, tree = build_db()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        loser = db.begin()
        tree.delete(loser, 1, "r1")
        db.log.flush()  # mark record durable, commit absent
        crash_restart_and_verify(db, {"r1": 1})

    def test_mark_leaf_entry_undo_at_rollback(self):
        db, tree = build_db()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        txn = db.begin()
        tree.delete(txn, 1, "r1")
        db.rollback(txn)
        txn = db.begin()
        assert tree.search(txn, Interval(0, 10)) == [(1, "r1")]
        db.commit(txn)


class TestSplitRecords:
    def fill(self, db, tree, n=40):
        expected = {}
        txn = db.begin()
        for i in range(n):
            tree.insert(txn, i, f"r{i}")
            expected[f"r{i}"] = i
        db.commit(txn)
        return expected

    def test_split_get_page_and_internal_add_redo(self):
        db, tree = build_db()
        expected = self.fill(db, tree)
        types = record_types(db)
        assert "SplitRecord" in types
        assert "GetPageRecord" in types
        assert "InternalEntryAddRecord" in types
        assert "InternalEntryUpdateRecord" in types
        crash_restart_and_verify(db, expected)

    def test_root_split_record_redo(self):
        db, tree = build_db()
        expected = self.fill(db, tree, n=6)
        assert "RootSplitRecord" in record_types(db)
        crash_restart_and_verify(db, expected)

    def test_parent_entry_update_redo(self):
        db, tree = build_db()
        expected = self.fill(db, tree, n=10)
        # inserting a key far outside every BP forces expansion
        txn = db.begin()
        tree.insert(txn, 10_000, "far")
        db.commit(txn)
        expected["far"] = 10_000
        assert "ParentEntryUpdateRecord" in record_types(db)
        crash_restart_and_verify(db, expected)


class TestGarbageCollectionRecord:
    def test_gc_redo(self):
        db, tree = build_db()
        txn = db.begin()
        for i in range(4):  # exactly fills the root leaf
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        tree.delete(txn, 0, "r0")
        db.commit(txn)
        # next insert finds the leaf full and garbage-collects it
        txn = db.begin()
        tree.insert(txn, 9, "r9")
        db.commit(txn)
        assert any(
            isinstance(r, GarbageCollectionRecord)
            for r in db.log.records_from(1)
        )
        expected = {f"r{i}": i for i in range(1, 4)}
        expected["r9"] = 9
        crash_restart_and_verify(db, expected)


class TestNodeDeletionRecords:
    def test_internal_entry_delete_free_page_rightlink_redo(self):
        db, tree = build_db()
        expected = {}
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, i, f"r{i}")
            expected[f"r{i}"] = i
        db.commit(txn)
        txn = db.begin()
        for i in range(10, 30):
            tree.delete(txn, i, f"r{i}")
            del expected[f"r{i}"]
        db.commit(txn)
        txn = db.begin()
        report = vacuum(tree, txn)
        db.commit(txn)
        assert report.nodes_deleted > 0
        types = record_types(db)
        assert "InternalEntryDeleteRecord" in types
        assert "FreePageRecord" in types
        assert "RightlinkUpdateRecord" in types
        crash_restart_and_verify(db, expected)

    def test_freed_page_is_reusable_after_restart(self):
        db, tree = build_db()
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        for i in range(40):
            tree.delete(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        vacuum(tree, txn)
        db.commit(txn)
        freed_before = set(db.store.allocated_pids())
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        assert set(db2.store.allocated_pids()) == freed_before
        # the recovered tree keeps working
        tree2 = db2.tree("t")
        txn = db2.begin()
        for i in range(20):
            tree2.insert(txn, i, f"n{i}")
        db2.commit(txn)
        assert check_tree(tree2).ok


class TestInterruptedSMO:
    def test_crash_mid_split_is_undone(self):
        """A split whose atomic action never completed (no DummyClr)
        must be rolled back page-oriented at restart (section 9.2)."""
        from repro.errors import CrashError

        db, tree = build_db()
        expected = {}
        txn = db.begin()
        for i in range(4):
            tree.insert(txn, i * 10, f"r{i}")
            expected[f"r{i}"] = i * 10
        db.commit(txn)

        def bomb(**_ctx):
            raise CrashError("boom")

        db.hooks.on("insert:after-split", bomb)
        loser = db.begin()
        with pytest.raises(CrashError):
            tree.insert(loser, 15, "rx")  # leaf is full: split starts
        db.hooks.clear()
        db.log.flush()  # split record durable, NTA end record absent
        crash_restart_and_verify(db, expected)

    def test_interrupted_smo_undo_is_skipped_once_completed(self):
        """A *completed* atomic action must survive the rollback of the
        transaction that executed it: abort the inserting transaction
        after a successful split and verify the split stays."""
        db, tree = build_db()
        txn = db.begin()
        for i in range(4):
            tree.insert(txn, i * 10, f"r{i}")
        db.commit(txn)
        splits_before = tree.stats.splits
        loser = db.begin()
        tree.insert(loser, 15, "rx")
        assert tree.stats.splits == splits_before + 1
        db.rollback(loser)
        # the key is gone but the split (structure) remains
        txn = db.begin()
        assert tree.search(txn, Interval(15, 15)) == []
        db.commit(txn)
        assert tree.stats.splits == splits_before + 1
        assert check_tree(tree).ok
        # and the log shows no split undo (no PageImageClr)
        assert "PageImageClr" not in record_types(db)


SCENARIOS = [
    (cls, name)
    for cls in (
        TestContentRecords,
        TestSplitRecords,
        TestGarbageCollectionRecord,
        TestNodeDeletionRecords,
        TestInterruptedSMO,
    )
    for name in sorted(vars(cls))
    if name.startswith("test_")
]


@pytest.mark.parametrize(
    "cls,name", SCENARIOS, ids=[name for _, name in SCENARIOS]
)
def test_matrix_with_readers_interleaved(cls, name, monkeypatch):
    """The whole matrix again, a read-only transaction (isolation levels
    in rotation, full-range scan, committed or rolled back) running
    before every writer begins: same oracle, and no log a scenario
    crashes or leaves behind carries a reader's xid."""
    levels = itertools.cycle(IsolationLevel)
    finishes = itertools.cycle((Database.commit, Database.rollback))
    readers: dict[Database, set[int]] = {}
    ran: list[int] = []
    real_begin, real_crash = Database.begin, Database.crash

    def assert_log_never_saw_readers(db):
        seen = {r.xid for r in db.log.records_from(1)}
        assert not seen & readers.get(db, set())

    def begin(db, isolation=IsolationLevel.REPEATABLE_READ):
        if db.trees and not db.txns.active_transactions():
            reader = real_begin(db, next(levels))
            readers.setdefault(db, set()).add(reader.xid)
            ran.append(reader.xid)
            for tree in db.trees.values():
                tree.search(reader, Interval(-1, 10**9))
            assert next(finishes)(db, reader) in (0, None)
        return real_begin(db, isolation)

    def crash(db):
        # checked here, not at the end: restart hands out xids again
        # from the highest one the log knows
        assert_log_never_saw_readers(db)
        readers.pop(db, None)
        real_crash(db)

    monkeypatch.setattr(Database, "begin", begin)
    monkeypatch.setattr(Database, "crash", crash)
    getattr(cls(), name)()
    assert ran, "the scenario began nothing on a tree"
    for db in readers:
        assert_log_never_saw_readers(db)
