"""Garbage collection, BP shrinking, node deletion (sections 7.1–7.2)."""

from repro.ext.btree import Interval
from repro.gist.checker import check_tree
from repro.gist.maintenance import vacuum
from repro.sync.latch import LatchMode


def load(db, tree, n=40):
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)


class TestGarbageCollection:
    def test_vacuum_removes_committed_tombstones(self, db, btree):
        load(db, btree)
        txn = db.begin()
        for i in range(0, 40, 2):
            btree.delete(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        report = vacuum(btree, txn)
        db.commit(txn)
        assert report.entries_collected == 20
        check = check_tree(btree)
        assert check.ok and check.leaf_entries == check.live_entries == 20

    def test_vacuum_spares_uncommitted_tombstones(self, db, btree):
        load(db, btree, n=10)
        deleter = db.begin()
        btree.delete(deleter, 3, "r3")
        vac_txn = db.begin()
        report = vacuum(btree, vac_txn)
        db.commit(vac_txn)
        assert report.entries_collected == 0
        db.rollback(deleter)  # the entry must still be unmarked-able
        check = db.begin()
        assert btree.search(check, Interval(3, 3)) == [(3, "r3")]
        db.commit(check)

    def test_vacuum_spares_aborted_deleters_leftovers(self, db, btree):
        load(db, btree, n=10)
        txn = db.begin()
        btree.delete(txn, 3, "r3")
        db.rollback(txn)  # unmarked again
        vac = db.begin()
        report = vacuum(btree, vac)
        db.commit(vac)
        assert report.entries_collected == 0

    def test_insert_triggers_opportunistic_gc(self, db, btree):
        """A full leaf with committed tombstones is GC'd instead of
        split (section 7.1)."""
        txn = db.begin()
        for i in range(4):  # page_capacity=4: root leaf now full
            btree.insert(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        btree.delete(txn, 0, "r0")
        db.commit(txn)
        splits_before = btree.stats.splits
        txn = db.begin()
        btree.insert(txn, 9, "r9")
        db.commit(txn)
        assert btree.stats.gc_runs >= 1
        assert btree.stats.splits == splits_before  # GC avoided the split


class TestBPShrinking:
    def test_vacuum_shrinks_wide_bps(self, db, btree):
        load(db, btree)
        txn = db.begin()
        for i in range(30, 40):  # delete the high end
            btree.delete(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        report = vacuum(btree, txn)
        db.commit(txn)
        assert report.bps_shrunk > 0
        assert check_tree(btree).ok
        # no BP should extend beyond the remaining key range on leaves
        for pid in btree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page
                if page.is_leaf and page.bp is not None and page.entries:
                    assert page.bp.hi <= 29


class TestNodeDeletion:
    def test_vacuum_deletes_empty_nodes(self, db, btree):
        load(db, btree)
        pages_before = btree.page_count()
        txn = db.begin()
        for i in range(40):
            btree.delete(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        report = vacuum(btree, txn)
        db.commit(txn)
        assert report.nodes_deleted > 0
        assert btree.page_count() < pages_before
        assert check_tree(btree).ok

    def test_signaling_lock_blocks_deletion(self, db, btree):
        """The drain technique: a node with a signaling lock must not be
        deleted (section 7.2)."""
        load(db, btree)
        txn = db.begin()
        for i in range(40):
            btree.delete(txn, i, f"r{i}")
        db.commit(txn)
        # simulate an operation holding a stacked pointer to every node
        holder = db.begin()
        for pid in btree.all_pids():
            db.signaling.take(holder.xid, btree.node_lock(pid))
        vac = db.begin()
        report = vacuum(btree, vac)
        db.commit(vac)
        assert report.nodes_deleted == 0
        assert report.deletions_blocked > 0
        db.commit(holder)
        # once the locks are gone, vacuum can reclaim
        vac = db.begin()
        report = vacuum(btree, vac)
        db.commit(vac)
        assert report.nodes_deleted > 0

    def test_freed_pages_are_reused_by_splits(self, db, btree):
        load(db, btree)
        txn = db.begin()
        for i in range(40):
            btree.delete(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        report = vacuum(btree, txn)
        db.commit(txn)
        freed = set(report.freed_pids)
        assert freed
        load(db, btree)  # grow again: splits allocate pages
        reused = freed & set(btree.all_pids())
        assert reused  # at least one freed page came back

    def test_full_delete_then_vacuum_collapses_to_empty_leaf(
        self, db, btree
    ):
        load(db, btree)
        txn = db.begin()
        for i in range(40):
            btree.delete(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        vacuum(btree, txn)
        db.commit(txn)
        with db.pool.fixed(btree.root_pid, LatchMode.S) as frame:
            assert frame.page.is_leaf
            assert frame.page.entries == []
        # the tree remains fully usable
        load(db, btree, n=20)
        txn = db.begin()
        assert len(btree.search(txn, Interval(0, 19))) == 20
        db.commit(txn)
        assert check_tree(btree).ok

    def test_vacuum_on_empty_tree_is_noop(self, db, btree):
        txn = db.begin()
        report = vacuum(btree, txn)
        db.commit(txn)
        assert report.nodes_deleted == 0
        assert report.entries_collected == 0
