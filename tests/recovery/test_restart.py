"""Restart recovery: analysis / redo / undo end-to-end (section 9)."""

import pytest

from repro.database import Database
from repro.errors import RecoveryError
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree
from tests.recovery.test_logical_undo import leaf_of


def build():
    db = Database(page_capacity=4)
    tree = db.create_tree("t", BTreeExtension())
    return db, tree


def contents(db, tree):
    txn = db.begin()
    found = dict(
        (rid, key) for key, rid in tree.search(txn, Interval(-1, 10**9))
    )
    db.commit(txn)
    return found


class TestRedo:
    def test_nothing_flushed_everything_replayed(self):
        db, tree = build()
        txn = db.begin()
        for i in range(30):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.crash()  # log flushed by commit; no page ever written
        db2 = db.restart({"t": BTreeExtension()})
        assert contents(db2, db2.tree("t")) == {
            f"r{i}": i for i in range(30)
        }
        assert check_tree(db2.tree("t")).ok

    def test_partial_flush_mixed_state(self):
        db, tree = build()
        txn = db.begin()
        for i in range(20):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.pool.flush_all()
        txn = db.begin()
        for i in range(20, 40):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        assert contents(db2, db2.tree("t")) == {
            f"r{i}": i for i in range(40)
        }

    def test_redo_is_idempotent_across_double_restart(self):
        db, tree = build()
        txn = db.begin()
        for i in range(25):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        db2.crash()
        db3 = db2.restart({"t": BTreeExtension()})
        assert contents(db3, db3.tree("t")) == {
            f"r{i}": i for i in range(25)
        }
        assert check_tree(db3.tree("t")).ok

    def test_unflushed_commit_record_loses_transaction(self):
        """Durability boundary: a 'commit' whose record never reached
        the disk is not a commit."""
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        txn2 = db.begin()
        tree.insert(txn2, 2, "r2")
        # commit txn2 but sabotage the force: truncate the flush by
        # crashing with only the first commit flushed
        db.log.append(
            __import__(
                "repro.wal.records", fromlist=["CommitRecord"]
            ).CommitRecord(xid=txn2.xid)
        )
        # deliberately NOT flushed
        db.log.crash()
        db.pool.crash()
        db2 = db.restart({"t": BTreeExtension()})
        assert contents(db2, db2.tree("t")) == {"r1": 1}


class TestUndoAtRestart:
    def test_losers_rolled_back(self):
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 1, "keep")
        db.commit(txn)
        loser = db.begin()
        tree.insert(loser, 2, "lose-insert")
        tree.delete(loser, 1, "keep")
        db.log.flush()
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        assert contents(db2, db2.tree("t")) == {"keep": 1}
        assert check_tree(db2.tree("t")).ok

    def test_interrupted_rollback_resumes_via_clrs(self):
        """Crash during rollback: restart must finish the rollback
        without undoing anything twice (CLR undo_next chains)."""
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 1, "a")
        tree.insert(txn, 2, "b")
        # roll back, then crash *after* the rollback's CLRs are durable
        db.rollback(txn)
        db.log.flush()
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        assert contents(db2, db2.tree("t")) == {}
        assert check_tree(db2.tree("t")).ok

    def test_multiple_losers(self):
        db, tree = build()
        committed = {}
        txn = db.begin()
        for i in range(10):
            tree.insert(txn, i, f"c{i}")
            committed[f"c{i}"] = i
        db.commit(txn)
        losers = [db.begin() for _ in range(3)]
        for j, loser in enumerate(losers):
            for i in range(4):
                tree.insert(loser, 100 + j * 10 + i, f"l{j}-{i}")
        db.log.flush()
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        assert contents(db2, db2.tree("t")) == committed
        report = check_tree(db2.tree("t"))
        assert report.ok, report.errors


class TestCheckpoints:
    def test_checkpoint_limits_redo_scan(self):
        db, tree = build()
        txn = db.begin()
        for i in range(20):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.pool.flush_all()
        db.checkpoint()
        txn = db.begin()
        tree.insert(txn, 99, "late")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        report = db2.recovery_report
        assert report.redo_start_lsn >= db.log.master_lsn - 1
        expected = {f"r{i}": i for i in range(20)}
        expected["late"] = 99
        assert contents(db2, db2.tree("t")) == expected

    def test_recovery_without_any_checkpoint(self):
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        report = db2.recovery_report
        # no checkpoint: redo starts at the first page-touching record
        assert report.redo_start_lsn <= 2
        assert contents(db2, db2.tree("t")) == {"r1": 1}


def restart_recording_io(db):
    """``restart`` with the store's reads and writes recorded by pid."""
    store, read, write = db.store, db.store.read, db.store.write
    reads, writes = [], []
    store.read = lambda pid: (reads.append(pid), read(pid))[1]
    store.write = lambda page: (writes.append(page.pid), write(page))[1]
    try:
        db2 = db.restart({"t": BTreeExtension()})
    finally:
        del store.read, store.write
    return db2, reads, writes


class TestRestartIO:
    """Restart costs what the crash left dirty, counted in page I/Os."""

    def build_flushed(self):
        db, tree = build()
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db.pool.flush_all()
        return db, tree

    def test_clean_shutdown_restart_touches_no_page(self):
        db, tree = self.build_flushed()
        checkpoint = db.log.get(db.checkpoint())
        assert checkpoint.dpt == {}
        db.crash()
        before = db.store.stats.snapshot()
        db2 = db.restart({"t": BTreeExtension()})
        after = db.store.stats.snapshot()
        assert after["reads"] - before["reads"] == 0
        assert after["writes"] - before["writes"] == 0
        report = db2.recovery_report
        assert (report.pages_read, report.pages_written) == (0, 0)
        assert report.redone_records == 0
        assert report.redo_skipped == 0
        assert report.checkpoint_begin_lsn == checkpoint.begin_lsn
        assert report.redo_start_lsn == checkpoint.begin_lsn
        assert contents(db2, db2.tree("t")) == {f"r{i}": i for i in range(40)}

    def test_reads_the_dpt_and_writes_what_redo_changed(self):
        db, tree = self.build_flushed()
        victims = [(3, "r3"), (17, "r17"), (31, "r31")]
        leaves = [leaf_of(db, tree, *victim) for victim in victims]
        assert None not in leaves and len(set(leaves)) == 3
        txn = db.begin()
        for key, rid in victims:
            tree.delete(txn, key, rid)  # marks the entry: one page each
        db.commit(txn)
        assert set(db.log.get(db.checkpoint()).dpt) == set(leaves)
        # one of the three reaches the store after the checkpoint: still
        # in the DPT, hence read, but current, hence not written
        db.pool.flush_page(leaves[0])
        db.crash()
        db2, reads, writes = restart_recording_io(db)
        assert sorted(reads) == sorted(leaves)
        assert writes == sorted(leaves[1:])
        report = db2.recovery_report
        assert report.pages_read == 3
        assert report.pages_written == 2
        assert report.redone_records == 2
        # the span and the black box say the same
        told = {
            "pages_read": 3,
            "pages_written": 2,
            "redo_skipped": report.redo_skipped,
            "checkpoint_begin_lsn": report.checkpoint_begin_lsn,
        }
        [span] = db2.metrics.tracer.events(name="recovery.redo")
        assert told.items() <= span.data.items()
        recovered = db2.flightrec.events()[-1]
        assert recovered.name == "db.recovered"
        assert told.items() <= recovered.data.items()
        expected = {f"r{i}": i for i in range(40)}
        for _, rid in victims:
            del expected[rid]
        assert contents(db2, db2.tree("t")) == expected
        assert check_tree(db2.tree("t")).ok

    def test_without_a_checkpoint_every_page_is_read_and_none_rewritten(self):
        """No checkpoint: every page is in the DPT from its first
        mention, so all are read — but what is current stays put."""
        db, tree = self.build_flushed()
        pids = sorted(tree.all_pids())
        db.crash()
        db2, reads, writes = restart_recording_io(db)
        assert sorted(reads) == pids
        assert writes == []
        assert db2.recovery_report.checkpoint_begin_lsn == 0
        assert db2.recovery_report.redo_start_lsn == 2


class TestCatalogRecovery:
    def test_multiple_trees_recovered(self):
        db = Database(page_capacity=4)
        a = db.create_tree("a", BTreeExtension())
        b = db.create_tree("b", BTreeExtension())
        txn = db.begin()
        a.insert(txn, 1, "a1")
        b.insert(txn, 2, "b2")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"a": BTreeExtension(), "b": BTreeExtension()})
        assert contents(db2, db2.tree("a")) == {"a1": 1}
        assert contents(db2, db2.tree("b")) == {"b2": 2}

    def test_missing_extension_raises(self):
        db, tree = build()
        db.crash()
        with pytest.raises(RecoveryError):
            db.restart({})

    def test_xid_counter_advances_past_recovered(self):
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        old_xid = txn.xid
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        new_txn = db2.begin()
        assert new_txn.xid > old_xid
        db2.commit(new_txn)

    def test_gc_visibility_of_precrash_commits(self):
        """Tombstones from committed pre-crash deleters must remain
        GC-able after restart (is_committed survives recovery)."""
        from repro.gist.maintenance import vacuum

        db, tree = build()
        txn = db.begin()
        for i in range(8):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        tree.delete(txn, 3, "r3")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        tree2 = db2.tree("t")
        txn = db2.begin()
        report = vacuum(tree2, txn)
        db2.commit(txn)
        assert report.entries_collected == 1
