"""Unit tests for the lock manager: grants, queues, conversion, release."""

import threading
import time

import pytest

import repro.lock.manager
from repro.errors import LockTimeoutError
from repro.lock.manager import LockManager
from repro.lock.modes import LockMode
from repro.lock.signaling import SignalingLocks

S, X = LockMode.S, LockMode.X


class TestGrants:
    def test_compatible_grants_share(self):
        lm = LockManager()
        assert lm.acquire(1, "a", S)
        assert lm.acquire(2, "a", S)
        assert set(lm.holders("a")) == {1, 2}

    def test_conflicting_nowait_returns_false(self):
        lm = LockManager()
        lm.acquire(1, "a", X)
        assert lm.acquire(2, "a", S, wait=False) is False
        assert lm.acquire(2, "a", X, wait=False) is False

    def test_reentrant_same_mode(self):
        lm = LockManager()
        lm.acquire(1, "a", X)
        assert lm.acquire(1, "a", X)
        lm.release(1, "a")
        assert lm.held_mode(1, "a") == X  # count was 2
        lm.release(1, "a")
        assert lm.held_mode(1, "a") is None

    def test_weaker_request_subsumed_by_held(self):
        lm = LockManager()
        lm.acquire(1, "a", X)
        assert lm.acquire(1, "a", S)  # subsumed, granted instantly
        assert lm.held_mode(1, "a") == X

    def test_blocking_grant_after_release(self):
        lm = LockManager()
        lm.acquire(1, "a", X)
        granted = threading.Event()

        def waiter():
            lm.acquire(2, "a", S)
            granted.set()

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.02)
        assert not granted.is_set()
        lm.release(1, "a")
        assert granted.wait(2.0)
        t.join()


class TestConversion:
    def test_sole_holder_upgrades_instantly(self):
        lm = LockManager()
        lm.acquire(1, "a", S)
        assert lm.acquire(1, "a", X)
        assert lm.held_mode(1, "a") == X

    def test_upgrade_waits_for_other_reader(self):
        lm = LockManager()
        lm.acquire(1, "a", S)
        lm.acquire(2, "a", S)
        upgraded = threading.Event()

        def upgrader():
            lm.acquire(1, "a", X)
            upgraded.set()

        t = threading.Thread(target=upgrader)
        t.start()
        time.sleep(0.02)
        assert not upgraded.is_set()
        lm.release(2, "a")
        assert upgraded.wait(2.0)
        t.join()

    def test_conversion_goes_ahead_of_waiters(self):
        lm = LockManager()
        lm.acquire(1, "a", S)
        lm.acquire(2, "a", S)
        order = []

        def converter():
            lm.acquire(1, "a", X)
            order.append("convert")
            lm.release_all(1)

        def fresh():
            lm.acquire(3, "a", X)
            order.append("fresh")
            lm.release_all(3)

        tf = threading.Thread(target=fresh)
        tf.start()
        time.sleep(0.02)
        tc = threading.Thread(target=converter)
        tc.start()
        time.sleep(0.02)
        lm.release(2, "a")  # now conversion can go; fresh waits for it
        tc.join(2.0)
        tf.join(2.0)
        assert order == ["convert", "fresh"]


class TestFairness:
    def test_no_overtaking_queued_writer(self):
        lm = LockManager()
        lm.acquire(1, "a", S)
        writer_queued = threading.Event()
        writer_granted = threading.Event()

        def writer():
            writer_queued.set()
            lm.acquire(2, "a", X)
            writer_granted.set()
            lm.release_all(2)

        t = threading.Thread(target=writer)
        t.start()
        writer_queued.wait()
        time.sleep(0.02)
        # reader 3 would be compatible with reader 1 but must queue
        # behind the writer
        assert lm.acquire(3, "a", S, wait=False) is False
        lm.release(1, "a")
        assert writer_granted.wait(2.0)
        t.join()


class TestRelease:
    def test_release_all(self):
        lm = LockManager()
        lm.acquire(1, "a", S)
        lm.acquire(1, "b", X)
        lm.release_all(1)
        assert lm.locks_of(1) == set()
        assert lm.holders("a") == {}
        assert lm.holders("b") == {}

    def test_release_unheld_is_noop(self):
        lm = LockManager()
        lm.release(1, "nothing")  # no error


class TestReplicateShared:
    """Split-time replication of signaling locks (section 10.3), which
    the signaling table does in place of the lock manager."""

    def test_copies_s_holders_with_counts(self):
        table = SignalingLocks()
        table.take(1, "src")
        table.take(1, "src")  # count 2
        table.take(2, "src")
        table.replicate("src", "dst")
        assert table.holders("dst") == {1: 2, 2: 1}
        assert "dst" in table.names_of(1) and "dst" in table.names_of(2)
        # owner 1's count was copied: two drops needed
        table.drop(1, "dst")
        assert table.holders("dst") == {1: 1, 2: 1}
        table.drop(1, "dst")
        assert table.holders("dst") == {2: 1}
        assert "dst" not in table.names_of(1)

    def test_missing_source_is_noop(self):
        table = SignalingLocks()
        table.replicate("ghost", "dst")
        assert table.holders("dst") == {}
        assert len(table) == 0


class _SliceCounter(threading.Condition):
    """The lock manager's condition, recording each wait slice it is
    asked for and returning at once instead of sleeping it."""

    def __init__(self, lock) -> None:
        super().__init__(lock)
        self.slices: list[float] = []

    def wait(self, timeout=None):
        self.slices.append(timeout)
        return False


class _ManagerThreading:
    """``threading`` as :mod:`repro.lock.manager` sees it."""

    def __init__(self) -> None:
        self.conditions: list[_SliceCounter] = []

    def __getattr__(self, name: str):
        return getattr(threading, name)

    def Condition(self, lock):  # noqa: N802 - the name __init__ looks up
        condition = _SliceCounter(lock)
        self.conditions.append(condition)
        return condition


class TestTimeout:
    def test_lock_wait_times_out(self, monkeypatch):
        shim = _ManagerThreading()
        monkeypatch.setattr(repro.lock.manager, "threading", shim)
        lm = LockManager(default_timeout=0.2)
        (slices,) = [c.slices for c in shim.conditions]
        lm.acquire(1, "a", X)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "a", X)
        # The 0.2 s timeout is honoured, not the 30 s default (600
        # slices): exactly four 50 ms slices, and no fifth.
        assert slices == [0.05] * 4
        assert lm.stats.timeouts == 1
