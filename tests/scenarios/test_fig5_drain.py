"""Figure 5 / section 7.2: node deletion must drain references first.

Figure 5 shows why a traversal cannot "reposition" itself after its
target node vanished (the parent has changed; in a non-partitioning tree
there is no key range to re-enter by).  The paper's remedy is the drain
technique: traversals hold *signaling locks* on every stacked pointer,
and a node deletion probes them with a no-wait X lock.

This scenario freezes a search while it holds a stacked pointer to a
leaf, empties that leaf, and shows that vacuum cannot retire the node
until the search has moved past it — and that the freed page is only
reused afterwards.
"""

from __future__ import annotations

import threading

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.maintenance import vacuum
from repro.sync.hooks import PredicateGate
from repro.sync.latch import LatchMode


def build():
    db = Database(page_capacity=4, lock_timeout=10.0)
    tree = db.create_tree("fig5", BTreeExtension())
    txn = db.begin()
    for i in range(1, 13):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    return db, tree


def some_leaf_and_parent(db, tree):
    for pid in tree.all_pids():
        with db.pool.fixed(pid, LatchMode.S) as frame:
            page = frame.page
            if page.is_leaf or pid == tree.root_pid:
                continue
            # an internal node: take its first leaf child
            for entry in page.entries:
                with db.pool.fixed(entry.child, LatchMode.S) as cf:
                    if cf.page.is_leaf:
                        keys = [e.key for e in cf.page.entries]
                        return entry.child, pid, keys
    # height-2 tree: parent is the root
    with db.pool.fixed(tree.root_pid, LatchMode.S) as frame:
        entry = frame.page.entries[0]
    with db.pool.fixed(entry.child, LatchMode.S) as cf:
        keys = [e.key for e in cf.page.entries]
    return entry.child, tree.root_pid, keys


class TestDrainTechnique:
    def test_stacked_pointer_blocks_node_deletion(self):
        db, tree = build()
        leaf_pid, parent_pid, keys = some_leaf_and_parent(db, tree)

        # freeze a search right after it stacked the pointer to the leaf
        gate = PredicateGate(lambda pid=None, **_: pid == parent_pid)
        db.hooks.on("search:node-visited", gate.block)
        result: list = []

        def searcher():
            txn = db.begin()
            result.extend(tree.search(txn, Interval(1, 12)))
            db.commit(txn)

        t = threading.Thread(target=searcher)
        t.start()
        assert gate.wait_blocked(5.0)
        db.hooks.remove("search:node-visited", gate.block)

        # empty the leaf under the paused search and try to delete it
        deleter = db.begin()
        for key in keys:
            tree.delete(deleter, key, f"r{key}")
        db.commit(deleter)
        vac = db.begin()
        report = vacuum(tree, vac)
        db.commit(vac)
        # the leaf is drained-protected: its deletion must be refused
        assert leaf_pid not in report.freed_pids
        assert report.deletions_blocked >= 1
        assert db.store.is_allocated(leaf_pid)

        gate.open()
        t.join(10.0)
        assert not t.is_alive()
        # the paused search is *correct*: the deleted keys are simply
        # gone, everything else is found
        found = {k for k, _ in result}
        assert found == set(range(1, 13)) - set(keys)

        # with the search finished, the drain condition clears
        vac = db.begin()
        report = vacuum(tree, vac)
        db.commit(vac)
        assert leaf_pid in report.freed_pids
        assert not db.store.is_allocated(leaf_pid)

    def test_fresh_traversals_unaffected_by_drained_node(self):
        """While a node deletion is blocked by the drain, new searches
        simply never see the empty node's keys."""
        db, tree = build()
        leaf_pid, parent_pid, keys = some_leaf_and_parent(db, tree)
        deleter = db.begin()
        for key in keys:
            tree.delete(deleter, key, f"r{key}")
        db.commit(deleter)
        txn = db.begin()
        found = {k for k, _ in tree.search(txn, Interval(1, 12))}
        db.commit(txn)
        assert found == set(range(1, 13)) - set(keys)

    def test_insert_target_leaf_protected_until_commit(self):
        """Section 7.2's exception: the insert's target-leaf signaling
        lock persists to end of transaction, so the leaf holding an
        uncommitted entry cannot be retired even after the entry is
        deleted again within the same transaction."""
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 100, "mine")
        # find the leaf that took the entry
        target = None
        for pid in tree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                if frame.page.is_leaf and frame.page.find_leaf_entry(
                    100, "mine"
                ):
                    target = pid
        assert target is not None
        name = tree.node_lock(target)
        assert txn.xid in db.signaling.holders(name)
        # what a deleter's drain probe asks: the leaf is referenced
        vac = db.begin()
        assert db.signaling.held_by_others(vac.xid, name)
        db.commit(vac)
        db.commit(txn)
        assert db.signaling.holders(name) == {}
