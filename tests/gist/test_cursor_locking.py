"""Record locking by the search cursor (section 4.3): a leaf's matching
rows are locked in order, the scan stops at the first row another
transaction holds, blocks on it with no latch held, and resumes."""

import threading
import time

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.tree import GiST
from repro.txn.manager import txn_lock_name
from repro.txn.transaction import IsolationLevel

ROWS = [(k, f"r{k}") for k in range(1, 6)]


def build():
    """Five rows on one leaf, in leaf order, and a writer whose
    uncommitted insert is the third: its record is X-locked.  (A leaf
    keeps entries in insertion order.)"""
    db = Database(page_capacity=16, lock_timeout=10.0)
    tree = db.create_tree("t", BTreeExtension())
    writer = None
    for i, (key, rid) in enumerate(ROWS):
        txn = db.begin()
        tree.insert(txn, key, rid)
        if i == 2:
            writer = txn
        else:
            db.commit(txn)
    assert tree.height() == 1  # one leaf
    return db, tree, writer


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def blocked_scan(db, tree, writer, isolation):
    """Run a scan of every row in a thread until it blocks on the
    writer's row; returns the reader, the thread, its result list and
    the lock-acquisition count the scan started from."""
    reader = db.begin(isolation)
    before = db.locks.stats.acquires
    result = []
    thread = threading.Thread(
        target=lambda: result.extend(tree.search(reader, Interval(0, 10)))
    )
    thread.start()
    wait_until(lambda: db.locks.stats.waits == 1)
    return reader, thread, result, before


class TestRepeatableRead:
    def test_locks_rows_before_the_held_one_then_blocks(self):
        db, tree, writer = build()
        reader, thread, result, before = blocked_scan(
            db, tree, writer, IsolationLevel.REPEATABLE_READ
        )
        # rows 1 and 2 granted, row 3 refused, then the blocking request
        assert db.locks.stats.acquires - before == 4
        assert db.locks.locks_of(reader.xid) == {
            txn_lock_name(reader.xid),
            GiST.rid_lock("r1"),
            GiST.rid_lock("r2"),
        }
        assert thread.is_alive() and result == []
        db.commit(writer)
        thread.join(5.0)
        assert not thread.is_alive()
        assert sorted(result) == ROWS  # every row, once
        # the rescan locked rows 3 (again), 4 and 5
        assert db.locks.stats.acquires - before == 4 + 3
        assert db.locks.locks_of(reader.xid) == {txn_lock_name(reader.xid)} | {
            GiST.rid_lock(rid) for _, rid in ROWS
        }
        db.commit(reader)


class TestReadCommitted:
    def test_scan_leaves_only_the_transactions_own_lock(self):
        db, tree, writer = build()
        db.commit(writer)
        reader = db.begin(IsolationLevel.READ_COMMITTED)
        assert sorted(tree.search(reader, Interval(0, 10))) == ROWS
        assert db.locks.locks_of(reader.xid) == {txn_lock_name(reader.xid)}
        db.commit(reader)

    def test_blocked_scan_releases_every_row_lock(self):
        db, tree, writer = build()
        reader, thread, result, before = blocked_scan(
            db, tree, writer, IsolationLevel.READ_COMMITTED
        )
        assert db.locks.stats.acquires - before == 4
        # instant duration: rows 1 and 2 were released at once
        assert db.locks.locks_of(reader.xid) == {txn_lock_name(reader.xid)}
        db.commit(writer)
        thread.join(5.0)
        assert sorted(result) == ROWS
        assert db.locks.locks_of(reader.xid) == {txn_lock_name(reader.xid)}
        db.commit(reader)
