"""Group commit: concurrent log forces coalesce into shared I/Os."""

import threading
import time

from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.wal.log import LogManager
from repro.wal.records import CommitRecord


class TestFlushCoalescing:
    def test_rider_waits_for_leader(self):
        log = LogManager(flush_delay=0.05)
        for _ in range(4):
            log.append(CommitRecord(xid=1))
        done = []

        def forcer(lsn):
            log.flush(lsn)
            done.append(lsn)

        threads = [
            threading.Thread(target=forcer, args=(lsn,))
            for lsn in (1, 2, 3)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        elapsed = time.perf_counter() - start
        assert sorted(done) == [1, 2, 3]
        assert log.flushed_lsn >= 3
        # three forces at 50 ms each would be >= 150 ms serialized;
        # coalesced they cost roughly one or two sleeps
        assert elapsed < 0.14
        assert log.stats.group_commits >= 1

    def test_already_durable_is_free(self):
        log = LogManager(flush_delay=0.05)
        log.append(CommitRecord(xid=1))
        log.flush(1)
        flushes_before = log.stats.flushes
        start = time.perf_counter()
        log.flush(1)
        assert time.perf_counter() - start < 0.01
        assert log.stats.flushes == flushes_before

    def test_sequential_forces_still_work(self):
        log = LogManager(flush_delay=0.0)
        for _ in range(3):
            log.append(CommitRecord(xid=1))
        log.flush(1)
        assert log.flushed_lsn == 1
        log.flush(3)
        assert log.flushed_lsn == 3


class TestGroupCommitThroughput:
    def test_concurrent_commits_share_forces(self):
        """Many committers, one slow log: flushes << commits."""
        db = Database(page_capacity=16, flush_delay=0.004)
        tree = db.create_tree("gc", BTreeExtension())
        commits_per_thread = 8

        def worker(wid: int):
            for i in range(commits_per_thread):
                txn = db.begin()
                tree.insert(txn, wid * 100 + i, f"{wid}-{i}")
                db.commit(txn)

        # a lone committer has nobody to share with and no reason to
        # force more than once per commit
        before = db.log.stats.snapshot()
        worker(6)
        lone = db.log.stats.snapshot()
        assert lone["flushes"] - before["flushes"] <= commits_per_thread
        assert lone["group_commits"] == before["group_commits"]

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(6)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        elapsed = time.perf_counter() - start
        total_commits = 6 * commits_per_thread
        stats = db.log.stats.snapshot()
        # every commit is durable, but the log was forced far fewer
        # times than once per commit
        assert db.log.flushed_lsn == db.log.end_lsn or stats["flushes"] > 0
        assert stats["group_commits"] > lone["group_commits"]
        assert stats["flushes"] - lone["flushes"] < total_commits
        # and the wall clock reflects sharing, not 48 serialized sleeps
        assert elapsed < total_commits * 0.004
