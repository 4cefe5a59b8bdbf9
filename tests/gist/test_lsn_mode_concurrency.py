"""The §10.1 LSN-as-NSN optimization under real concurrency.

The optimization's safety argument (footnote 13) is subtle: memorizing
the parent's page LSN instead of the end-of-log LSN is only sound
because a parent that reflects a child's split carries an LSN above the
child's NSN.  These tests hammer a tree with concurrent splits and
verify nothing is ever missed.
"""

import random
import threading

from repro.database import Database
from repro.errors import TransactionAbort
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree


def build():
    db = Database(page_capacity=4, lock_timeout=20.0)
    tree = db.create_tree("lsn", BTreeExtension())
    return db, tree


class TestLSNModeConcurrency:
    def test_concurrent_inserts_and_searches(self):
        db, tree = build()
        setup = db.begin()
        preloaded = {}
        for i in range(100):
            tree.insert(setup, i * 5, f"pre-{i}")
            preloaded[f"pre-{i}"] = i * 5
        db.commit(setup)
        errors = []
        stop = threading.Event()

        def writer(wid):
            rng = random.Random(wid)
            for i in range(80):
                txn = db.begin()
                try:
                    tree.insert(txn, rng.randrange(500), f"{wid}-{i}")
                    db.commit(txn)
                except TransactionAbort:
                    try:
                        db.rollback(txn)
                    except Exception:
                        pass

        def reader():
            rng = random.Random(777)
            while not stop.is_set():
                txn = db.begin()
                try:
                    lo = rng.randrange(400)
                    found = {
                        r
                        for _, r in tree.search(
                            txn, Interval(lo, lo + 100)
                        )
                    }
                    db.commit(txn)
                    expected = {
                        r
                        for r, k in preloaded.items()
                        if lo <= k <= lo + 100
                    }
                    if not expected <= found:
                        errors.append(
                            f"missed {sorted(expected - found)[:3]}"
                        )
                except TransactionAbort:
                    try:
                        db.rollback(txn)
                    except Exception:
                        pass

        writers = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(90.0)
        stop.set()
        for t in readers:
            t.join(30.0)
        assert errors == [], errors[:3]
        assert check_tree(tree).ok
        assert tree.stats.splits > 0

    def test_lsn_mode_split_detection_fires(self):
        """Force the Figure-2 interleaving in LSN mode: the paused
        search must still detect the split via the page-LSN memo."""
        from repro.sync.hooks import PredicateGate
        from repro.sync.latch import LatchMode

        db, tree = build()
        txn = db.begin()
        for i in range(1, 13):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        # locate a full leaf and its parent
        leaf_pid = parent_pid = None
        for pid in tree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page
                if (
                    page.is_leaf
                    and page.is_full
                    and pid != tree.root_pid
                ):
                    leaf_pid = pid
                    keys = sorted(e.key for e in page.entries)
        assert leaf_pid is not None
        for pid in tree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                if (
                    frame.page.is_internal
                    and frame.page.find_child_entry(leaf_pid)
                ):
                    parent_pid = pid
        gate = PredicateGate(lambda pid=None, **_: pid == parent_pid)
        db.hooks.on("search:node-visited", gate.block)
        result = []

        def searcher():
            stxn = db.begin()
            result.extend(
                tree.search(stxn, Interval(keys[0], keys[-1]))
            )
            db.commit(stxn)

        t = threading.Thread(target=searcher)
        t.start()
        assert gate.wait_blocked(5.0)
        db.hooks.remove("search:node-visited", gate.block)
        follows_before = tree.stats.rightlink_follows
        wtxn = db.begin()
        tree.insert(wtxn, keys[0] + 0.5, "racer")
        db.commit(wtxn)
        gate.open()
        t.join(10.0)
        check = db.begin()
        expected = {
            k
            for k, _ in tree.search(
                check, Interval(keys[0], keys[-1])
            )
        }
        db.commit(check)
        assert {k for k, _ in result} == expected
        assert tree.stats.rightlink_follows > follows_before
