"""NSNs are LSNs (sections 3 and 10.1)."""

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree
from repro.sync.latch import LatchMode
from repro.wal.records import RootSplitRecord, SplitRecord


def _loaded(n: int):
    db = Database(page_capacity=4)
    tree = db.create_tree("t", BTreeExtension())
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    return db, tree


class TestNSNsAreLSNs:
    def test_split_nsn_is_record_lsn(self):
        """A split stamps its own record's LSN on the original node."""
        db, tree = _loaded(40)
        splits = [
            r
            for r in db.log.records_from(1)
            if isinstance(r, (SplitRecord, RootSplitRecord))
        ]
        assert len(splits) == tree.stats.splits > 1
        assert all(r.new_nsn == r.lsn for r in splits)
        # the last split of each original page is the NSN it carries
        last = {}
        for r in splits:
            last[r.orig_pid if isinstance(r, SplitRecord) else r.root_pid] = r
        for pid, record in last.items():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                assert frame.page.nsn == record.lsn

    def test_current_is_end_of_log(self):
        """An operation memorises the end-of-log LSN at the root, which
        is at or above every NSN: a search started after the splits
        follows no rightlink."""
        db, tree = _loaded(40)
        txn = db.begin()
        cursor = tree.open_cursor(txn, Interval(0, 39))
        assert cursor.stack[0].memo == db.log.end_lsn
        follows = tree.stats.rightlink_follows
        assert len(cursor.fetch_all()) == 40
        cursor.close()
        db.commit(txn)
        assert tree.stats.rightlink_follows == follows

    def test_memo_uses_parent_page_lsn_not_global(self):
        """The §10.1 optimization: a child pointer is memorised with its
        parent's page LSN, not a read of the log manager."""
        db, tree = _loaded(6)
        assert tree.height() == 2
        with db.pool.fixed(tree.root_pid, LatchMode.S) as frame:
            root_lsn = frame.page.page_lsn
        other = db.create_tree("other", BTreeExtension())
        txn = db.begin()
        other.insert(txn, 0, "o0")  # the end of the log moves on
        db.commit(txn)
        txn = db.begin()
        cursor = tree.open_cursor(txn, Interval(0, 5))
        cursor.fetch_next()  # visits the root, stacks its children
        assert cursor.stack
        assert all(entry.memo == root_lsn for entry in cursor.stack)
        assert root_lsn < db.log.end_lsn
        cursor.close()
        db.commit(txn)


class TestLSNModeEndToEnd:
    def test_tree_with_lsn_source_works(self):
        db, tree = _loaded(200)
        txn = db.begin()
        assert len(tree.search(txn, Interval(0, 199))) == 200
        db.commit(txn)
        assert check_tree(tree).ok

    def test_lsn_mode_survives_crash(self):
        db, tree = _loaded(60)
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        tree2 = db2.tree("t")
        txn = db2.begin()
        assert len(tree2.search(txn, Interval(0, 59))) == 60
        db2.commit(txn)
        assert check_tree(tree2).ok
