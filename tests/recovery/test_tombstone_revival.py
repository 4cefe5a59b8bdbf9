"""A ``(key, rid)`` pair re-inserted while its own tombstone is still on
the leaf: the insert revives the tombstone in place, and its log record
(``ReviveLeafEntryRecord``) says so, so that rollback re-marks the entry
instead of removing it and redo replays the revival.  A re-insert that
lands on another leaf than the tombstone must not be masked by it."""

import pytest

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.ext.rtree import Rect, RTreeExtension
from repro.gist.checker import check_tree
from repro.storage.page import LeafEntry, Page, PageKind
from repro.sync.latch import LatchMode
from repro.wal.records import MarkLeafEntryRecord, ReviveLeafEntryRecord

KEY, RID = 5, "r"


def build():
    db = Database(page_capacity=4, lock_timeout=10.0)
    tree = db.create_tree("t", BTreeExtension())
    return db, tree


def in_txn(db, action):
    txn = db.begin()
    action(txn)
    db.commit(txn)


def visible(db, tree):
    txn = db.begin()
    rows = tree.search(txn, Interval(KEY, KEY))
    db.commit(txn)
    return rows


def copies(db, tree):
    """``deleted`` flags of every leaf entry holding the pair."""
    flags = []
    for pid in tree.all_pids():
        with db.pool.fixed(pid, LatchMode.S) as frame:
            if frame.page.is_leaf:
                flags += [
                    e.deleted
                    for e in frame.page.entries
                    if (e.key, e.rid) == (KEY, RID)
                ]
    return flags


def committed_tombstone(db, tree):
    """Insert the pair among neighbours, then delete it; both commit.
    The leaf is left with room, so the re-insert does not garbage-collect
    the tombstone first."""

    def fill(txn):
        for i in range(2):
            tree.insert(txn, i * 10, f"n{i}")
        tree.insert(txn, KEY, RID)

    in_txn(db, fill)
    in_txn(db, lambda txn: tree.delete(txn, KEY, RID))
    assert copies(db, tree) == [True]


def restarted(db):
    db.log.flush()
    db.crash()
    db2 = db.restart({"t": BTreeExtension()})
    return db2, db2.tree("t")


class TestAcrossTransactions:
    def test_reinsert_after_committed_delete_is_visible(self):
        db, tree = build()
        committed_tombstone(db, tree)
        in_txn(db, lambda txn: tree.insert(txn, KEY, RID))
        assert visible(db, tree) == [(KEY, RID)]
        assert copies(db, tree) == [False]
        assert check_tree(tree).ok

    def test_the_reinsert_logs_a_revival_naming_the_deleter(self):
        db, tree = build()
        committed_tombstone(db, tree)
        deleter = next(
            r.xid
            for r in db.log.records_from()
            if isinstance(r, MarkLeafEntryRecord)
        )
        in_txn(db, lambda txn: tree.insert(txn, KEY, RID))
        revivals = [
            r
            for r in db.log.records_from()
            if isinstance(r, ReviveLeafEntryRecord)
        ]
        assert [(r.key, r.rid, r.delete_xid) for r in revivals] == [
            (KEY, RID, deleter)
        ]

    def test_rollback_of_a_revival_leaves_the_pair_absent(self):
        db, tree = build()
        committed_tombstone(db, tree)
        txn = db.begin()
        tree.insert(txn, KEY, RID)
        assert tree.search(txn, Interval(KEY, KEY)) == [(KEY, RID)]
        db.rollback(txn)
        assert visible(db, tree) == []
        # the tombstone is back, still collectable as a committed delete
        assert copies(db, tree) == [True]
        assert check_tree(tree).ok

    @pytest.mark.parametrize("flush_pages", [False, True])
    def test_committed_revival_survives_restart(self, flush_pages):
        db, tree = build()
        committed_tombstone(db, tree)
        if flush_pages:
            # redo then starts from a page image holding the tombstone
            db.pool.flush_all()
        in_txn(db, lambda txn: tree.insert(txn, KEY, RID))
        db2, tree2 = restarted(db)
        assert visible(db2, tree2) == [(KEY, RID)]
        assert copies(db2, tree2) == [False]
        assert check_tree(tree2).ok

    def test_loser_revival_is_undone_at_restart(self):
        db, tree = build()
        committed_tombstone(db, tree)
        loser = db.begin()
        tree.insert(loser, KEY, RID)
        db2, tree2 = restarted(db)
        assert visible(db2, tree2) == []
        assert copies(db2, tree2) == [True]
        assert check_tree(tree2).ok


class TestInOneTransaction:
    def setup_pair(self):
        db, tree = build()
        in_txn(db, lambda txn: tree.insert(txn, KEY, RID))
        txn = db.begin()
        tree.delete(txn, KEY, RID)
        tree.insert(txn, KEY, RID)
        return db, tree, txn

    def test_transaction_sees_its_own_reinsert(self):
        db, tree, txn = self.setup_pair()
        assert tree.search(txn, Interval(KEY, KEY)) == [(KEY, RID)]
        db.commit(txn)
        assert visible(db, tree) == [(KEY, RID)]
        assert copies(db, tree) == [False]

    def test_rollback_restores_the_committed_pair(self):
        db, tree, txn = self.setup_pair()
        db.rollback(txn)
        assert visible(db, tree) == [(KEY, RID)]
        assert copies(db, tree) == [False]
        assert check_tree(tree).ok

    def test_restart_undoes_delete_and_reinsert(self):
        db, tree, _ = self.setup_pair()
        db2, tree2 = restarted(db)
        assert visible(db2, tree2) == [(KEY, RID)]
        assert copies(db2, tree2) == [False]
        assert check_tree(tree2).ok

    def test_committed_delete_and_reinsert_survive_restart(self):
        db, tree, txn = self.setup_pair()
        db.commit(txn)
        db2, tree2 = restarted(db)
        assert visible(db2, tree2) == [(KEY, RID)]
        assert copies(db2, tree2) == [False]


def test_revival_redo_is_idempotent():
    page = Page(pid=3, kind=PageKind.LEAF)
    page.add_entry(LeafEntry(KEY, RID, deleted=True, delete_xid=7))
    record = ReviveLeafEntryRecord(
        xid=9, tree="t", page_id=3, key=KEY, rid=RID, delete_xid=7
    )
    for _ in range(2):
        record.redo_page(page)
        assert [(e.key, e.rid, e.deleted, e.delete_xid) for e in page.entries] == [
            (KEY, RID, False, None)
        ]


class TestTombstoneOnAnotherLeaf:
    """An R-tree re-insert may land on a different leaf than the pair's
    tombstone (both leaves' BPs cover the key): the tombstone must not
    mask the live copy from a search."""

    RECTS = [
        (7, 9, 10, 12), (2, 2, 8, 3), (5, 8, 9, 13), (1, 5, 6, 10),
        (0, 6, 2, 12), (7, 6, 9, 8), (3, 0, 4, 2), (8, 9, 9, 15),
        (6, 1, 9, 3), (10, 3, 16, 7), (1, 4, 3, 8), (4, 5, 5, 7),
    ]

    def test_live_copy_on_another_leaf_is_visible(self):
        db = Database(page_capacity=4, lock_timeout=10.0)
        tree = db.create_tree("r", RTreeExtension())
        rects = [Rect(*corners) for corners in self.RECTS]
        txn = db.begin()
        for i, rect in enumerate(rects):
            tree.insert(txn, rect, i)
        db.commit(txn)
        key, rid = rects[11], 11
        in_txn(db, lambda txn: tree.delete(txn, key, rid))
        in_txn(db, lambda txn: tree.insert(txn, key, rid))
        leaves = {}
        for pid in tree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                if frame.page.is_leaf:
                    for e in frame.page.entries:
                        if (e.key, e.rid) == (key, rid):
                            leaves[pid] = e.deleted
        # the scenario: the tombstone and the live copy on two leaves
        assert sorted(leaves.values()) == [False, True]
        txn = db.begin()
        assert [r for _, r in tree.search(txn, key) if r == rid] == [rid]
        db.commit(txn)
