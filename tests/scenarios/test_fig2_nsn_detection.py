"""Figure 2: the NSN + rightlink protocol detects concurrent splits.

The same interleaving as Figure 1, against the full GiST: a search is
frozen after it has read the target leaf's parent entry (memorizing the
parent's page LSN); a concurrent insert splits the leaf, stamping its
split record's LSN on the original node as the new NSN; the search
resumes, observes ``memorized < NSN``, follows the rightlink, and — per
Figure 2's bottom panel — stops at the sibling because the sibling's
inherited NSN is ≤ the memorized value.
"""

from __future__ import annotations

import threading

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.storage.page import NO_PAGE
from repro.sync.hooks import PredicateGate
from repro.sync.latch import LatchMode


def build(db):
    tree = db.create_tree("fig2", BTreeExtension())
    txn = db.begin()
    for i in range(1, 13):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    return tree


def find_full_leaf(db, tree):
    for pid in tree.all_pids():
        with db.pool.fixed(pid, LatchMode.S) as frame:
            page = frame.page
            if page.is_leaf and page.is_full and pid != tree.root_pid:
                return pid, sorted(e.key for e in page.entries)
    raise AssertionError("no full leaf; adjust preload")


def find_parent(db, tree, child_pid):
    for pid in tree.all_pids():
        with db.pool.fixed(pid, LatchMode.S) as frame:
            if (
                frame.page.is_internal
                and frame.page.find_child_entry(child_pid) is not None
            ):
                return pid
    raise AssertionError("no parent found")


class TestFigure2:
    def test_search_compensates_for_missed_split(self):
        db = Database(page_capacity=4, lock_timeout=10.0)
        tree = build(db)
        leaf_pid, keys = find_full_leaf(db, tree)
        parent_pid = find_parent(db, tree, leaf_pid)
        lo, hi = keys[0], keys[-1]

        gate = PredicateGate(lambda pid=None, **_: pid == parent_pid)
        db.hooks.on("search:node-visited", gate.block)
        result: list = []

        def searcher():
            txn = db.begin()
            result.extend(tree.search(txn, Interval(lo, hi)))
            db.commit(txn)

        t = threading.Thread(target=searcher)
        t.start()
        assert gate.wait_blocked(5.0)
        db.hooks.remove("search:node-visited", gate.block)

        follows_before = tree.stats.rightlink_follows
        nsn_before = db.log.end_lsn
        writer = db.begin()
        tree.insert(writer, lo + 0.5, "racer")
        db.commit(writer)
        assert db.log.end_lsn > nsn_before  # the split's LSN is newer

        gate.open()
        t.join(10.0)
        assert not t.is_alive()

        # completeness: nothing missed despite the split
        txn = db.begin()
        expected = {
            k
            for k, _ in tree.search(txn, Interval(lo, hi))
        }
        db.commit(txn)
        found = {k for k, _ in result}
        assert found == expected
        # the compensation really happened through the rightlink
        assert tree.stats.rightlink_follows > follows_before

    def test_nsn_and_rightlink_assignment_on_split(self):
        """Figure 2's NSN mechanics: the original node receives a new
        NSN, its split record's LSN (section 10.1); the sibling inherits
        the old NSN and the old rightlink."""
        db = Database(page_capacity=4)
        tree = db.create_tree("fig2b", BTreeExtension())
        txn = db.begin()
        for i in range(1, 13):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        leaf_pid, keys = find_full_leaf(db, tree)
        with db.pool.fixed(leaf_pid, LatchMode.S) as frame:
            old_nsn = frame.page.nsn
            old_rightlink = frame.page.rightlink
        memo_before = db.log.end_lsn
        txn = db.begin()
        tree.insert(txn, keys[0] + 0.5, "racer")
        db.commit(txn)
        with db.pool.fixed(leaf_pid, LatchMode.S) as frame:
            new_nsn = frame.page.nsn
            sibling_pid = frame.page.rightlink
        assert new_nsn > memo_before >= old_nsn
        assert sibling_pid != NO_PAGE
        with db.pool.fixed(sibling_pid, LatchMode.S) as frame:
            assert frame.page.nsn == old_nsn  # inherited
            assert frame.page.rightlink == old_rightlink  # inherited
        # chain-termination rule: a traversal that memorized
        # memo_before stops at the sibling (nsn <= memo) but follows
        # from the original (nsn > memo)
        assert old_nsn <= memo_before < new_nsn

    def test_multiple_splits_whole_chain_followed(self):
        """A node may split several times behind a paused traversal; the
        NSN rule walks the entire split chain."""
        db = Database(page_capacity=4, lock_timeout=10.0)
        tree = build(db)
        leaf_pid, keys = find_full_leaf(db, tree)
        parent_pid = find_parent(db, tree, leaf_pid)
        lo, hi = keys[0], keys[-1]

        gate = PredicateGate(lambda pid=None, **_: pid == parent_pid)
        db.hooks.on("search:node-visited", gate.block)
        result: list = []

        def searcher():
            txn = db.begin()
            result.extend(tree.search(txn, Interval(lo, hi)))
            db.commit(txn)

        t = threading.Thread(target=searcher)
        t.start()
        assert gate.wait_blocked(5.0)
        db.hooks.remove("search:node-visited", gate.block)

        # several racing inserts into the same region: multiple splits
        writer = db.begin()
        for i in range(12):
            tree.insert(writer, lo + (i + 1) / 100.0, f"racer{i}")
        db.commit(writer)

        gate.open()
        t.join(10.0)
        found = {k for k, _ in result}
        txn = db.begin()
        expected = {k for k, _ in tree.search(txn, Interval(lo, hi))}
        db.commit(txn)
        assert found == expected
