"""The strongest recovery property: crash at *every* log prefix.

A recorded history is replayed as if the crash had preserved exactly
``k`` log records, for every ``k`` from 0 to the full log.  Each prefix
must recover to a structurally consistent tree whose contents are
exactly the effects of the transactions whose commit record made it
into the prefix — no torn transactions, no lost committed work, for any
cut point, including cuts inside structure-modification atomic actions.
"""

from __future__ import annotations

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree
from repro.storage.disk import PageStore
from repro.txn.transaction import IsolationLevel
from repro.wal.recovery import RestartRecovery


def record_history():
    """A small history with commits, aborts, deletes, splits, GC — and
    read-only transactions between the writers, which the log must
    never hear of."""
    db = Database(page_capacity=4)
    tree = db.create_tree("sw", BTreeExtension())
    effects: list[tuple[int, str, object, object]] = []  # commit-ordered
    readers: set[int] = set()

    def reader(isolation, finish, query=Interval(-1, 10**6)):
        txn = db.begin(isolation)
        readers.add(txn.xid)
        tree.search(txn, query)
        if finish is not None:
            assert finish(txn) in (0, None)

    def committed_txn(ops):
        txn = db.begin()
        for kind, key, rid in ops:
            if kind == "insert":
                tree.insert(txn, key, rid)
            else:
                tree.delete(txn, key, rid)
        commit_lsn = db.commit(txn)
        for kind, key, rid in ops:
            effects.append((commit_lsn, kind, key, rid))

    committed_txn([("insert", i, f"a{i}") for i in range(8)])
    reader(IsolationLevel.REPEATABLE_READ, db.commit)
    committed_txn([("insert", i + 10, f"b{i}") for i in range(8)])
    reader(IsolationLevel.READ_COMMITTED, db.rollback)
    committed_txn([("delete", 3, "a3"), ("insert", 99, "c0")])
    # an aborted transaction in the middle
    loser = db.begin()
    tree.insert(loser, 55, "loser")
    db.rollback(loser)
    reader(IsolationLevel.READ_UNCOMMITTED, db.commit)
    committed_txn([("insert", 42, "d0"), ("delete", 12, "b2")])
    # a reader and a writer left in flight at the end, out of each
    # other's way
    reader(IsolationLevel.REPEATABLE_READ, None, Interval(0, 20))
    dangling = db.begin()
    tree.insert(dangling, 77, "dangling")
    assert not any(r.xid in readers for r in db.log.records_from(1))
    return db, effects, readers


def expected_for_prefix(effects, k: int) -> dict:
    """Contents after applying effects of commits with lsn <= k."""
    state: dict = {}
    for commit_lsn, kind, key, rid in effects:
        if commit_lsn > k:
            continue
        if kind == "insert":
            state[rid] = key
        else:
            state.pop(rid, None)
    return state


class TestPrefixSweep:
    def test_every_prefix_recovers_consistently(self):
        db, effects, readers = record_history()
        end = db.log.end_lsn
        assert end > 50  # the history is non-trivial
        failures = []
        for k in range(end + 1):
            log = db.log.clone_prefix(k)
            store = PageStore(page_capacity=4)
            fresh = Database(store=store, log=log, page_capacity=4)
            try:
                report = RestartRecovery(fresh, {"sw": BTreeExtension()}).run()
            except Exception as exc:
                failures.append(f"k={k}: recovery raised {exc!r}")
                continue
            if readers & set(report.losers):
                failures.append(f"k={k}: a reader among {report.losers}")
            if "sw" not in fresh.trees:
                continue  # prefix predates the tree
            tree = fresh.tree("sw")
            check = check_tree(tree)
            if not check.ok:
                failures.append(f"k={k}: structure {check.errors[:2]}")
                continue
            txn = fresh.begin()
            found = dict(
                (rid, key)
                for key, rid in tree.search(txn, Interval(-1, 10**6))
            )
            fresh.commit(txn)
            expected = expected_for_prefix(effects, k)
            if found != expected:
                missing = set(expected) - set(found)
                extra = set(found) - set(expected)
                failures.append(
                    f"k={k}: missing={sorted(missing)[:3]} "
                    f"extra={sorted(extra)[:3]}"
                )
        assert not failures, failures[:5]
