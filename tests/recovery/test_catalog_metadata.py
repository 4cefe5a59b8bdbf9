"""Catalog metadata must survive restart: uniqueness; NSNs stay sound."""

import pytest

from repro.database import Database
from repro.errors import UniqueViolationError
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree
from repro.sync.latch import LatchMode


class TestUniqueFlagSurvives:
    def test_unique_enforced_after_restart(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("uq", BTreeExtension(), unique=True)
        txn = db.begin()
        tree.insert(txn, 5, "r5")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"uq": BTreeExtension()})
        tree2 = db2.tree("uq")
        assert tree2.unique
        txn = db2.begin()
        with pytest.raises(UniqueViolationError):
            tree2.insert(txn, 5, "dup")
        db2.rollback(txn)

    def test_counter_resumes_above_recovered_max(self):
        """NSNs are LSNs, and a crash that drops the unflushed log tail
        makes restart reuse its LSNs.  That is sound: the write-ahead
        rule keeps every NSN of a surviving page within the durable
        log, so a split after restart still stamps a larger NSN."""
        db = Database(page_capacity=4)
        tree = db.create_tree("c", BTreeExtension())
        txn = db.begin()
        for i in range(40):  # plenty of splits
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        tail = db.begin()
        for i in range(100, 120):  # splits whose records never flush
            tree.insert(tail, i, f"r{i}")
        durable, lost_end = db.log.flushed_lsn, db.log.end_lsn
        assert durable < lost_end
        db.crash()
        db2 = db.restart({"c": BTreeExtension()})
        tree2 = db2.tree("c")
        # restart appends from durable + 1: the lost tail's LSNs again
        assert db2.recovery_report.valid_end_lsn == durable
        assert check_tree(tree2).ok
        high_water = max(_nsns(db2, tree2).values())
        assert 0 < high_water <= durable
        # new splits produce strictly larger NSNs: the detection
        # protocol stays sound across the crash
        before = _nsns(db2, tree2)
        txn = db2.begin()
        for i in range(40, 60):
            tree2.insert(txn, i, f"r{i}")
        db2.commit(txn)
        after = _nsns(db2, tree2)
        restamped = [pid for pid in before if after[pid] != before[pid]]
        assert restamped
        assert all(after[pid] > high_water for pid in restamped)


def _nsns(db, tree) -> dict:
    nsns = {}
    for pid in tree.all_pids():
        with db.pool.fixed(pid, LatchMode.S) as frame:
            nsns[pid] = frame.page.nsn
    return nsns


class TestUniqueAfterRecoveredDelete:
    def test_reinsert_after_recovered_committed_delete(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("uq", BTreeExtension(), unique=True)
        txn = db.begin()
        tree.insert(txn, 5, "r5")
        db.commit(txn)
        txn = db.begin()
        tree.delete(txn, 5, "r5")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"uq": BTreeExtension()})
        tree2 = db2.tree("uq")
        txn = db2.begin()
        tree2.insert(txn, 5, "r5-again")  # tombstone is committed: OK
        db2.commit(txn)
        check = db2.begin()
        assert tree2.search(check, Interval(5, 5)) == [(5, "r5-again")]
        db2.commit(check)

    def test_uncommitted_unique_insert_lost_in_crash(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("uq", BTreeExtension(), unique=True)
        loser = db.begin()
        tree.insert(loser, 5, "ghost")
        db.log.flush()
        db.crash()
        db2 = db.restart({"uq": BTreeExtension()})
        tree2 = db2.tree("uq")
        txn = db2.begin()
        tree2.insert(txn, 5, "real")  # the ghost must not block this
        db2.commit(txn)
