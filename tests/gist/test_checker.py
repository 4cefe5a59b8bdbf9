"""The invariant checker itself must catch real corruption."""

from repro.ext.btree import Interval
from repro.gist.checker import check_tree
from repro.storage.page import LeafEntry
from repro.sync.latch import LatchMode


def load(db, tree, n=60):
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)


def leaf_pids(db, tree):
    out = []
    for pid in tree.all_pids():
        with db.pool.fixed(pid, LatchMode.S) as frame:
            if frame.page.is_leaf:
                out.append(pid)
    return out


class TestCleanTreesPass:
    def test_fresh_tree(self, db, btree):
        assert check_tree(btree).ok

    def test_loaded_tree(self, db, btree):
        load(db, btree)
        report = check_tree(btree)
        assert report.ok
        assert report.live_entries == 60
        assert report.pages == len(btree.all_pids())


class TestCorruptionIsCaught:
    def test_dangling_downlink(self, db, btree):
        load(db, btree)
        with db.pool.fixed(btree.root_pid, LatchMode.X) as frame:
            frame.page.entries[0].child = 99_999
        report = check_tree(btree, check_reachability=False)
        assert not report.ok
        assert any("dangling" in e or "unreachable" in e for e in report.errors)

    def test_bp_not_covering_content(self, db, btree):
        load(db, btree)
        victim = leaf_pids(db, btree)[0]
        with db.pool.fixed(victim, LatchMode.X) as frame:
            frame.page.entries.append(LeafEntry(10**6, "alien"))
        report = check_tree(btree, check_reachability=False)
        assert not report.ok

    def test_duplicate_rid_across_leaves(self, db, btree):
        load(db, btree)
        pids = leaf_pids(db, btree)
        with db.pool.fixed(pids[0], LatchMode.S) as frame:
            entry = frame.page.entries[0].copy()
        with db.pool.fixed(pids[1], LatchMode.X) as frame:
            frame.page.entries.append(entry)
        report = check_tree(btree, check_reachability=False)
        assert not report.ok
        assert any("RID" in e for e in report.errors)

    def test_level_mismatch(self, db, btree):
        load(db, btree)
        victim = leaf_pids(db, btree)[0]
        with db.pool.fixed(victim, LatchMode.X) as frame:
            frame.page.level = 5
        report = check_tree(btree, check_reachability=False)
        assert not report.ok

    def test_rightlink_cycle(self, db, btree):
        load(db, btree)
        pids = leaf_pids(db, btree)
        with db.pool.fixed(pids[0], LatchMode.X) as frame:
            frame.page.rightlink = pids[0]  # self-loop
        report = check_tree(btree, check_reachability=False)
        assert not report.ok
        assert any("cycle" in e for e in report.errors)

    def test_nsn_beyond_counter(self, db, btree):
        load(db, btree)
        victim = leaf_pids(db, btree)[0]
        with db.pool.fixed(victim, LatchMode.X) as frame:
            frame.page.nsn = 10**9
        report = check_tree(btree, check_reachability=False)
        assert not report.ok
        assert any("NSN" in e for e in report.errors)

    def test_unreachable_live_entry(self, db, btree):
        load(db, btree)
        # shrink a downlink predicate so its subtree's keys fall outside
        with db.pool.fixed(btree.root_pid, LatchMode.X) as frame:
            entry = frame.page.entries[0]
            entry.pred = Interval(-10, -5)
        report = check_tree(btree)
        assert not report.ok

    def test_unsorted_node_of_an_ordered_tree(self, db, btree):
        load(db, btree)
        for pid in (leaf_pids(db, btree)[0], btree.root_pid):
            with db.pool.fixed(pid, LatchMode.X) as frame:
                frame.page.entries.reverse()
        report = check_tree(btree, check_reachability=False)
        assert not report.ok
        assert sum("sorts before" in e for e in report.errors) == 2

    def test_unordered_tree_has_no_order_to_check(self, db, rtree):
        from repro.ext.rtree import Rect

        txn = db.begin()
        for i in range(20):
            rtree.insert(txn, Rect(i, i, i + 1, i + 1), f"r{i}")
        db.commit(txn)
        with db.pool.fixed(leaf_pids(db, rtree)[0], LatchMode.X) as frame:
            frame.page.entries.reverse()
        assert check_tree(rtree).ok
