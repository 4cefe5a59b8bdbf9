"""Insertion (Figure 4): splits, BP propagation, NSN juggling."""

import random

from repro.ext.btree import BTreeExtension, Interval
from repro.ext.rtree import Rect, RTreeExtension
from repro.gist.checker import check_tree
from repro.lock.modes import LockMode
from repro.storage.page import NO_PAGE
from repro.sync.latch import LatchMode


def _leaf_of(db, tree, key, rid):
    for pid in tree.all_pids():
        with db.pool.fixed(pid, LatchMode.S) as frame:
            if frame.page.is_leaf and frame.page.find_leaf_entry(key, rid):
                return pid
    raise AssertionError(f"{(key, rid)} is in no leaf")


class TestBasicInsert:
    def test_insert_then_found(self, db, btree):
        txn = db.begin()
        btree.insert(txn, 5, "r5")
        db.commit(txn)
        txn = db.begin()
        assert btree.search(txn, Interval(5, 5)) == [(5, "r5")]
        db.commit(txn)

    def test_insert_xlocks_data_record_first(self, db, btree):
        txn = db.begin()
        btree.insert(txn, 5, "r5")
        assert db.locks.held_mode(txn.xid, ("rid", "r5")) == LockMode.X
        db.commit(txn)

    def test_many_inserts_build_valid_tree(self, db, btree):
        txn = db.begin()
        for i in range(300):
            btree.insert(txn, (i * 37) % 500, f"r{i}")
        db.commit(txn)
        report = check_tree(btree)
        assert report.ok, report.errors
        assert report.live_entries == 300
        assert btree.height() >= 3  # page_capacity=4 forces real depth

    def test_leaf_signaling_lock_held_to_eot(self, db, btree):
        txn = db.begin()
        btree.insert(txn, 5, "r5")
        node_locks = db.signaling.names_of(txn.xid)
        # at least the target leaf's lock survives the operation
        assert btree.node_lock(_leaf_of(db, btree, 5, "r5")) in node_locks
        db.commit(txn)
        assert all(
            db.signaling.holders(name) == {} for name in node_locks
        )


class TestSplitMechanics:
    def test_split_assigns_new_nsn_to_original(self, db, btree):
        txn = db.begin()
        for i in range(4):
            btree.insert(txn, i, f"r{i}")
        # root (a leaf) is now full; the next insert splits it
        before = btree.nsn.current()
        btree.insert(txn, 4, "r4")
        db.commit(txn)
        assert btree.nsn.current() > before
        assert btree.stats.root_splits == 1

    def test_sibling_inherits_old_nsn_and_rightlink(self, db, btree):
        txn = db.begin()
        for i in range(60):
            btree.insert(txn, i, f"r{i}")
        db.commit(txn)
        # walk every level: along each rightlink chain, NSNs must be
        # non-increasing toward the right (older siblings first split)
        for pid in btree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page.snapshot()
            if page.rightlink == NO_PAGE:
                continue
            with db.pool.fixed(page.rightlink, LatchMode.S) as frame:
                sibling = frame.page.snapshot()
            assert sibling.level == page.level

    def test_bp_of_split_halves_cover_content(self, db, btree):
        txn = db.begin()
        for i in range(100):
            btree.insert(txn, i, f"r{i}")
        db.commit(txn)
        ext = btree.ext
        for pid in btree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page.snapshot()
            if page.bp is None:
                continue
            preds = (
                [e.key for e in page.entries if not e.deleted]
                if page.is_leaf
                else [e.pred for e in page.entries]
            )
            for pred in preds:
                assert ext.covers(page.bp, pred)

    def test_recursive_split_through_internal_levels(self, db, btree):
        txn = db.begin()
        for i in range(500):
            btree.insert(txn, i, f"r{i}")
        db.commit(txn)
        assert btree.height() >= 4
        assert check_tree(btree).ok


class TestBPExpansion:
    def test_outlier_key_expands_ancestors(self, db, btree):
        txn = db.begin()
        for i in range(50):
            btree.insert(txn, i, f"r{i}")
        db.commit(txn)
        updates_before = btree.stats.bp_updates
        txn = db.begin()
        btree.insert(txn, 10_000, "far")
        db.commit(txn)
        assert btree.stats.bp_updates > updates_before
        txn = db.begin()
        assert btree.search(txn, Interval(10_000, 10_000)) == [
            (10_000, "far")
        ]
        db.commit(txn)
        assert check_tree(btree).ok

    def test_covered_key_needs_no_bp_update(self, db, btree):
        txn = db.begin()
        for i in range(0, 100, 2):
            btree.insert(txn, i, f"r{i}")
        db.commit(txn)
        before = btree.stats.bp_updates
        txn = db.begin()
        btree.insert(txn, 51, "in-range")  # strictly inside some leaf BP?
        db.commit(txn)
        # the insert may or may not hit a covering leaf; what must hold
        # is consistency, checked structurally:
        assert check_tree(btree).ok
        assert btree.stats.bp_updates >= before


class TestInterleavedWorkload:
    def test_mixed_insert_delete_search_single_txn(self, db, btree):
        txn = db.begin()
        for i in range(60):
            btree.insert(txn, i, f"r{i}")
        for i in range(0, 60, 3):
            btree.delete(txn, i, f"r{i}")
        result = btree.search(txn, Interval(0, 59))
        db.commit(txn)
        expected = {i for i in range(60) if i % 3 != 0}
        assert {k for k, _ in result} == expected
        assert check_tree(btree).ok

    def test_insert_after_heavy_deletes(self, db, btree):
        txn = db.begin()
        for i in range(40):
            btree.insert(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        for i in range(40):
            btree.delete(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        for i in range(40):
            btree.insert(txn, i, f"n{i}")
        db.commit(txn)
        txn = db.begin()
        assert len(btree.search(txn, Interval(0, 39))) == 40
        db.commit(txn)
        assert check_tree(btree).ok


class TestLocateLeafChoice:
    """``locateLeaf`` stops at the first zero-penalty entry; that must be
    the entry ``min`` over all penalties returns (first minimum)."""

    @staticmethod
    def _assert_min_penalty_path(db, tree, key):
        ext, pool = tree.ext, db.pool
        txn = db.begin()
        frame, stack = tree._locate_leaf(txn, key)
        path = [entry.pid for entry in stack] + [frame.page.pid]
        pool.unfix(frame)
        for pid, chosen in zip(path, path[1:]):
            with pool.fixed(pid, LatchMode.S) as node:
                best = min(
                    node.page.entries,
                    key=lambda e: ext.penalty(e.pred, key),
                )
            assert best.child == chosen
        db.commit(txn)

    def test_btree_descends_like_min(self, db):
        tree = db.create_tree("bt", BTreeExtension())
        txn = db.begin()
        for i in range(200):
            tree.insert(txn, (i * 37) % 400, f"r{i}")
        db.commit(txn)
        for key in (-5, 0, 111, 200.5, 399, 1000):
            self._assert_min_penalty_path(db, tree, key)

    def test_rtree_overlapping_bps_descend_like_min(self, db):
        tree = db.create_tree("rt", RTreeExtension())
        rng = random.Random(7)
        txn = db.begin()
        for i in range(200):
            x, y = rng.randrange(100), rng.randrange(100)
            tree.insert(txn, Rect(x, y, x + 10, y + 10), f"r{i}")
        db.commit(txn)
        assert tree.height() >= 3
        for _ in range(40):
            x, y = rng.randrange(-20, 120), rng.randrange(-20, 120)
            self._assert_min_penalty_path(db, tree, Rect(x, y, x + 1, y + 1))
