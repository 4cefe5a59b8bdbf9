"""Section 10.2 meets section 7.2: savepoints pin signaling locks.

"We have to make sure that the signaling locks that exist when the
savepoint is established are not released later on" — because a partial
rollback restores the cursor's stack, resurrecting the stacked pointers
those locks protect.  This scenario proves both directions:

* with a savepoint: the node stays deletion-protected even after the
  cursor visited it, and the restored cursor traverses safely;
* without a savepoint: the same visit releases the lock and the node
  becomes reclaimable.
"""

from __future__ import annotations

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.maintenance import vacuum


def build():
    db = Database(page_capacity=4, lock_timeout=10.0)
    tree = db.create_tree("sp", BTreeExtension())
    txn = db.begin()
    for i in range(24):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    return db, tree


class TestSavepointPinsSignalingLocks:
    def test_visited_nodes_stay_locked_after_savepoint(self):
        db, tree = build()
        txn = db.begin()
        cursor = tree.open_cursor(txn, Interval(0, 23))
        cursor.fetch_next()  # some pointers stacked, some visited
        savepoint = db.txns.savepoint(txn, "mid-scan")
        assert savepoint.pinned_signaling  # node locks were captured
        pinned = set(savepoint.pinned_signaling)
        # drain the cursor: without the savepoint these visits would
        # release the locks; the pins must keep them
        cursor.fetch_all()
        deleter = db.begin()
        for name in pinned:
            assert txn.xid in db.signaling.holders(name), (
                f"pinned signaling lock {name} was released by a visit"
            )
            # what the pin is for: a deleter's drain probe sees the node
            assert db.signaling.held_by_others(deleter.xid, name)
        db.commit(deleter)
        cursor.close()
        db.commit(txn)

    def test_restored_cursor_traverses_after_partial_rollback(self):
        db, tree = build()
        txn = db.begin()
        cursor = tree.open_cursor(txn, Interval(0, 23))
        first = [cursor.fetch_next() for _ in range(4)]
        savepoint = db.txns.savepoint(txn)
        cursor.fetch_all()  # drain fully
        db.txns.rollback_to_savepoint(txn, savepoint)
        # the cursor's stacked pointers are alive again; finish the scan
        replay = cursor.fetch_all()
        cursor.close()
        rids = {r for _, r in first} | {r for _, r in replay}
        assert rids == {f"r{i}" for i in range(24)}
        db.commit(txn)

    def test_without_savepoint_locks_release_on_visit(self):
        db, tree = build()
        txn = db.begin()
        cursor = tree.open_cursor(txn, Interval(0, 23))
        cursor.fetch_next()
        stacked = {tree.node_lock(entry.pid) for entry in cursor.stack}
        deleter = db.begin()
        assert stacked  # pointers are stacked, and protect their nodes
        assert all(db.signaling.held_by_others(deleter.xid, n) for n in stacked)
        cursor.fetch_all()
        cursor.close()
        # only the locks with an end-of-transaction reason may remain
        # (a pure reader has none)
        assert db.signaling.names_of(txn.xid) == set()
        assert not any(
            db.signaling.held_by_others(deleter.xid, n) for n in stacked
        )
        db.commit(deleter)
        db.commit(txn)

    def test_pinned_node_resists_vacuum_until_commit(self):
        from repro.txn.transaction import IsolationLevel

        db, tree = build()
        # read committed: no record locks are retained (the deleter must
        # not block on them), but signaling locks are still taken and
        # pinned by the savepoint — which is exactly what is under test
        reader = db.begin(IsolationLevel.READ_COMMITTED)
        cursor = tree.open_cursor(reader, Interval(0, 23))
        cursor.fetch_next()
        db.txns.savepoint(reader, "keep-refs")
        cursor.fetch_all()  # visits everything; pins keep the locks
        cursor.close()

        # another transaction empties the whole tree
        deleter = db.begin()
        for i in range(24):
            tree.delete(deleter, i, f"r{i}")
        db.commit(deleter)

        vac = db.begin()
        report = vacuum(tree, vac)
        db.commit(vac)
        # at least some deletions must have been refused: the reader's
        # pinned signaling locks still protect its stacked pointers
        assert report.deletions_blocked > 0

        db.commit(reader)  # releases everything
        vac = db.begin()
        report = vacuum(tree, vac)
        db.commit(vac)
        assert report.nodes_deleted > 0
