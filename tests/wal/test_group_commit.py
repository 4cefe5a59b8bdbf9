"""Group commit: concurrent log forces coalesce into shared I/Os.

Every property here is a count, not a wall-clock bound.  A log force is
the one place the log sleeps (``flush_delay``, on a fresh ``Event``),
and a forcer that finds a force already in flight waits on the log's
condition instead of forcing itself.  :class:`LogThreading` stands in
for ``threading`` inside :mod:`repro.wal.log` to count both, and can
hold one force asleep until the test has lined the other forcers up
behind it, so each schedule below is the same on every run.
"""

import threading

import pytest

import repro.wal.log
from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.wal.log import LogManager
from repro.wal.records import CommitRecord

#: how long a test waits for a schedule step before calling it hung
HUNG = 30.0


class LogThreading:
    """``threading`` as :mod:`repro.wal.log` sees it, instrumented.

    ``sleeps`` counts force sleeps, ``waits`` the times a forcer waited
    on a force in flight, ``waiting`` those waiting now.  After
    :meth:`hold_next` the next force sleeps until :meth:`wake`.
    """

    def __init__(self) -> None:
        self.sleeps = 0
        self.waits = 0
        self.waiting = 0
        self.changed = threading.Condition()
        self._hold: threading.Event | None = None  # for the next force
        self._gate = threading.Event()  # the force being held
        self._held = False

    def __getattr__(self, name: str):
        return getattr(threading, name)

    def hold_next(self) -> None:
        self._hold = self._gate = threading.Event()

    def wake(self) -> None:
        self._gate.set()

    def await_(self, predicate) -> None:
        with self.changed:
            assert self.changed.wait_for(predicate, HUNG), "schedule hung"

    def held(self) -> bool:
        return self._held

    def _note(self, **deltas: int) -> None:
        with self.changed:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)
            self.changed.notify_all()

    def Event(self):  # noqa: N802 - the name _flush looks up
        return _ForceSleep(self)

    def Condition(self, lock):  # noqa: N802 - the name __init__ looks up
        return _Riders(lock, self)


class _ForceSleep:
    """One force's ``flush_delay`` sleep, counted and maybe held."""

    def __init__(self, shim: LogThreading) -> None:
        self.shim = shim

    def wait(self, timeout: float) -> None:
        shim = self.shim
        hold, shim._hold = shim._hold, None
        if hold is None:
            shim._note(sleeps=1)
            threading.Event().wait(timeout)
            return
        with shim.changed:
            shim.sleeps += 1
            shim._held = True
            shim.changed.notify_all()
        assert hold.wait(HUNG), "held force never woken"
        shim._held = False


class _Riders(threading.Condition):
    """The log's force-done condition, counting who waits on it."""

    def __init__(self, lock, shim: LogThreading) -> None:
        super().__init__(lock)
        self.shim = shim

    def wait(self, timeout=None):
        self.shim._note(waits=1, waiting=1)
        try:
            return super().wait(timeout)
        finally:
            self.shim._note(waiting=-1)


@pytest.fixture
def log_threading(monkeypatch) -> LogThreading:
    shim = LogThreading()
    monkeypatch.setattr(repro.wal.log, "threading", shim)
    return shim


class TestFlushCoalescing:
    def test_rider_waits_for_leader(self, log_threading):
        log = LogManager(flush_delay=0.05)
        for _ in range(4):
            log.append(CommitRecord(xid=1))
        done = []

        def forcer(lsn):
            log.flush(lsn)
            done.append(lsn)

        log_threading.hold_next()
        leader = threading.Thread(target=forcer, args=(1,))
        leader.start()
        log_threading.await_(log_threading.held)
        riders = [
            threading.Thread(target=forcer, args=(lsn,)) for lsn in (2, 3)
        ]
        for t in riders:
            t.start()
        log_threading.await_(lambda: log_threading.waiting == 2)
        log_threading.wake()
        for t in [leader, *riders]:
            t.join(HUNG)
        assert sorted(done) == [1, 2, 3]
        assert log.flushed_lsn >= 3
        # three forces serialized would be three sleeps; the two riders
        # that queued behind the first force share the second one
        assert log_threading.sleeps == 2
        assert log.stats.flushes == 2
        assert log.stats.group_commits == 2

    def test_already_durable_is_free(self, log_threading):
        log = LogManager(flush_delay=0.05)
        log.append(CommitRecord(xid=1))
        log.flush(1)
        flushes_before = log.stats.flushes
        sleeps_before = log_threading.sleeps
        log.flush(1)
        # no force sleep, and no wait on somebody else's force
        assert log_threading.sleeps == sleeps_before
        assert log_threading.waits == 0
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
    def test_concurrent_commits_share_forces(self, log_threading):
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
        lone_sleeps = log_threading.sleeps
        assert lone["flushes"] - before["flushes"] <= commits_per_thread
        assert lone["group_commits"] == before["group_commits"]

        # the first concurrent force sleeps until the five other
        # workers are queued behind it; from there on nothing is held
        log_threading.hold_next()
        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(6)
        ]
        for t in threads:
            t.start()
        log_threading.await_(log_threading.held)
        log_threading.await_(lambda: log_threading.waiting == 5)
        log_threading.wake()
        for t in threads:
            t.join(60.0)
        total_commits = 6 * commits_per_thread
        stats = db.log.stats.snapshot()
        # every commit is durable, but the log was forced far fewer
        # times than once per commit
        assert db.log.flushed_lsn == db.log.end_lsn or stats["flushes"] > 0
        assert stats["group_commits"] >= lone["group_commits"] + 5
        assert stats["flushes"] - lone["flushes"] < total_commits
        # and the commits paid for shared forces, not 48 serialized
        # force sleeps
        assert log_threading.sleeps - lone_sleeps < total_commits
