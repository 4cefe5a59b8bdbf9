"""Unique-index insertion (section 8)."""

import threading
import time

import pytest

from repro.database import Database
from repro.errors import TransactionAbort, UniqueViolationError
from repro.ext.btree import BTreeExtension, Interval
from repro.lock.modes import LockMode


@pytest.fixture
def unique_tree(db):
    return db.create_tree("uq", BTreeExtension(), unique=True)


class TestUniqueBasics:
    def test_insert_then_duplicate_raises(self, db, unique_tree):
        txn = db.begin()
        unique_tree.insert(txn, 5, "r5")
        db.commit(txn)
        txn = db.begin()
        with pytest.raises(UniqueViolationError):
            unique_tree.insert(txn, 5, "other")
        db.rollback(txn)

    def test_distinct_keys_fine(self, db, unique_tree):
        txn = db.begin()
        for i in range(50):
            unique_tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        assert len(unique_tree.search(txn, Interval(0, 49))) == 50
        db.commit(txn)

    def test_duplicate_within_own_txn_raises(self, db, unique_tree):
        txn = db.begin()
        unique_tree.insert(txn, 5, "r5")
        with pytest.raises(UniqueViolationError):
            unique_tree.insert(txn, 5, "again")
        db.rollback(txn)

    def test_error_is_repeatable(self, db, unique_tree):
        """Section 8: the duplicate's record is S-locked, so the error
        reproduces on retry inside the same transaction."""
        setup = db.begin()
        unique_tree.insert(setup, 5, "r5")
        db.commit(setup)
        txn = db.begin()
        with pytest.raises(UniqueViolationError):
            unique_tree.insert(txn, 5, "mine")
        # the duplicate's data record is now S-locked by txn
        assert db.locks.held_mode(txn.xid, ("rid", "r5")) == LockMode.S
        with pytest.raises(UniqueViolationError):
            unique_tree.insert(txn, 5, "mine")
        db.rollback(txn)

    def test_reinsert_after_committed_delete(self, db, unique_tree):
        txn = db.begin()
        unique_tree.insert(txn, 5, "r5")
        db.commit(txn)
        txn = db.begin()
        unique_tree.delete(txn, 5, "r5")
        db.commit(txn)
        txn = db.begin()
        unique_tree.insert(txn, 5, "r5b")  # no violation
        db.commit(txn)

    def test_insert_predicates_cleaned_up(self, db, unique_tree):
        txn = db.begin()
        unique_tree.insert(txn, 5, "r5")
        # the "= key" predicates are released when the operation ends,
        # before end of transaction (section 8)
        assert unique_tree.predicates.predicates_of(txn.xid) == []
        db.commit(txn)


class TestUniqueRace:
    def test_racing_inserters_one_wins(self):
        """Two transactions inserting the same key concurrently: one
        commits, the other ends in a deadlock abort or a unique
        violation — never two copies of the key (section 8)."""
        db = Database(page_capacity=4, lock_timeout=10.0)
        tree = db.create_tree("uq", BTreeExtension(), unique=True)
        outcomes = []
        barrier = threading.Barrier(2)

        def racer(rid: str):
            barrier.wait()
            txn = db.begin()
            try:
                tree.insert(txn, 99, rid)
                db.commit(txn)
                outcomes.append(("committed", rid))
            except UniqueViolationError:
                db.rollback(txn)
                outcomes.append(("violation", rid))
            except TransactionAbort:
                try:
                    db.rollback(txn)
                except Exception:
                    pass
                outcomes.append(("deadlock", rid))

        threads = [
            threading.Thread(target=racer, args=(f"racer-{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(15.0)
        kinds = sorted(kind for kind, _ in outcomes)
        assert kinds[0] == "committed" or "committed" in kinds
        assert kinds.count("committed") == 1
        txn = db.begin()
        assert len(tree.search(txn, Interval(99, 99))) == 1
        db.commit(txn)

    def test_many_racing_keys(self):
        db = Database(page_capacity=8, lock_timeout=10.0)
        tree = db.create_tree("uq", BTreeExtension(), unique=True)
        committed = []

        def worker(wid: int):
            for key in range(10):
                txn = db.begin()
                try:
                    tree.insert(txn, key, f"w{wid}-k{key}")
                    db.commit(txn)
                    committed.append(key)
                except (UniqueViolationError, TransactionAbort):
                    try:
                        db.rollback(txn)
                    except Exception:
                        pass

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        txn = db.begin()
        result = tree.search(txn, Interval(0, 9))
        db.commit(txn)
        keys = [k for k, _ in result]
        assert len(keys) == len(set(keys))  # uniqueness held
        assert sorted(set(committed)) == sorted(keys)


class TestLeafCheckWait:
    """Section 8's last defence: the leaf check finds a racer's entry
    that the search phase could not see, waits for the racer with no
    latch held, then re-runs the duplicate probe.

    Two point inserts of one key always meet in the search phase (the
    second blocks at the root on the first's "= key" predicate), so the
    racer here is a ``bulk_load`` into the empty unique tree: it writes
    its entries without a search phase, between the insert's probe and
    its leaf check.
    """

    @staticmethod
    def _race(racer_commits: bool):
        db = Database(page_capacity=4, lock_timeout=10.0)
        tree = db.create_tree("uq", BTreeExtension(), unique=True)
        probed, go = threading.Event(), threading.Event()
        inserter = []
        visits = []

        def on_visit(**ctx):
            if threading.current_thread() not in inserter:
                return
            visits.append(ctx["pid"])
            if not probed.is_set():
                probed.set()  # the probe passed the empty root leaf
                go.wait(10.0)

        db.hooks.on("search:node-visited", on_visit)
        result = []

        def insert():
            txn = db.begin()
            try:
                tree.insert(txn, 42, "mine")
                db.commit(txn)
                result.append("inserted")
            except UniqueViolationError:
                db.rollback(txn)
                result.append("violation")

        thread = threading.Thread(target=insert)
        inserter.append(thread)
        thread.start()
        assert probed.wait(10.0)
        racer = db.begin()
        tree.bulk_load(racer, [(k, f"bulk{k}") for k in (10, 20, 42, 50, 60)])
        go.set()
        deadline = time.monotonic() + 10.0
        while not tree.stats.snapshot().get("predicate_blocks"):
            assert time.monotonic() < deadline, "the leaf check never vetoed"
            time.sleep(0.005)
        time.sleep(0.2)
        # the inserter waits for the racer itself: no re-probe has
        # visited a node since the first probe's one visit
        assert len(visits) == 1
        assert thread.is_alive()
        if racer_commits:
            db.commit(racer)
        else:
            db.rollback(racer)
        thread.join(10.0)
        assert not thread.is_alive()
        db.hooks.clear()
        txn = db.begin()
        rids = sorted(r for _, r in tree.search(txn, Interval(42, 42)))
        db.commit(txn)
        return result, rids

    def test_racer_commits_then_unique_violation(self):
        result, rids = self._race(racer_commits=True)
        assert result == ["violation"]
        assert rids == ["bulk42"]

    def test_racer_aborts_then_insert_succeeds(self):
        result, rids = self._race(racer_commits=False)
        assert result == ["inserted"]
        assert rids == ["mine"]
