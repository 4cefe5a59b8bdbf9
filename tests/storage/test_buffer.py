"""Unit tests for the buffer pool: pinning, eviction, WAL rule, crash,
and the resident-pin hot path's lock count."""

import threading

import pytest

from repro.database import Database
from repro.errors import BufferPoolError
from repro.ext.btree import BTreeExtension
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import LeafEntry, PageKind
from repro.sync.latch import LatchMode


def make_pool(capacity=4, io_delay=0.0, wal_flush=None):
    store = PageStore(io_delay=io_delay)
    return store, BufferPool(store, capacity=capacity, wal_flush=wal_flush)


class TestPinning:
    def test_new_frame_is_pinned_once(self):
        _, pool = make_pool()
        frame = pool.new_frame(PageKind.LEAF)
        assert frame.pin_count == 1
        pool.unpin(frame.page.pid)
        assert frame.pin_count == 0

    def test_unpin_unpinned_raises(self):
        _, pool = make_pool()
        frame = pool.new_frame(PageKind.LEAF)
        pool.unpin(frame.page.pid)
        with pytest.raises(BufferPoolError):
            pool.unpin(frame.page.pid)

    def test_pin_miss_reads_from_disk(self):
        store, pool = make_pool()
        frame = pool.new_frame(PageKind.LEAF)
        pid = frame.page.pid
        frame.page.add_entry(LeafEntry(1, "r1"))
        frame.mark_dirty(5)
        pool.unpin(pid)
        pool.flush_page(pid)
        pool.drop(pid)
        assert not pool.resident(pid)
        frame2 = pool.pin(pid)
        assert frame2.page.entries[0].rid == "r1"
        assert pool.misses == 1

    def test_pin_hit_counts(self):
        _, pool = make_pool()
        frame = pool.new_frame(PageKind.LEAF)
        pool.pin(frame.page.pid)
        assert pool.hits == 1
        assert frame.pin_count == 2


class TestEviction:
    def test_evicts_unpinned_lru(self):
        store, pool = make_pool(capacity=2)
        f1 = pool.new_frame(PageKind.LEAF)
        pool.unpin(f1.page.pid)
        f2 = pool.new_frame(PageKind.LEAF)
        pool.unpin(f2.page.pid)
        pool.new_frame(PageKind.LEAF)  # must evict f1 (oldest unpinned)
        assert not pool.resident(f1.page.pid)
        assert pool.resident(f2.page.pid)
        assert pool.evictions == 1

    def test_dirty_eviction_writes_back(self):
        store, pool = make_pool(capacity=1)
        f1 = pool.new_frame(PageKind.LEAF)
        f1.page.add_entry(LeafEntry(1, "r1"))
        f1.mark_dirty(3)
        pool.unpin(f1.page.pid)
        pool.new_frame(PageKind.LEAF)  # evicts + flushes f1
        assert store.exists(f1.page.pid)
        assert store.read(f1.page.pid).entries[0].rid == "r1"

    def test_all_pinned_raises(self):
        _, pool = make_pool(capacity=1)
        pool.new_frame(PageKind.LEAF)  # stays pinned
        with pytest.raises(BufferPoolError):
            pool.new_frame(PageKind.LEAF)

    def test_latched_frames_not_evicted(self):
        _, pool = make_pool(capacity=2)
        f1 = pool.new_frame(PageKind.LEAF)
        f1.latch.acquire(LatchMode.S)
        pool.unpin(f1.page.pid)  # unpinned but latched
        f2 = pool.new_frame(PageKind.LEAF)
        pool.unpin(f2.page.pid)
        pool.new_frame(PageKind.LEAF)  # must pick f2, not latched f1
        assert pool.resident(f1.page.pid)
        assert not pool.resident(f2.page.pid)
        f1.latch.release()

    def test_capacity_is_pool_wide(self):
        _, pool = make_pool(capacity=4)
        for _ in range(8):
            frame = pool.new_frame(PageKind.LEAF)
            pool.unpin(frame.page.pid)
        assert pool.metrics.snapshot()["buffer"]["resident"] == 4
        assert pool.evictions == 4

    def test_drop_releases_capacity(self):
        _, pool = make_pool(capacity=2)
        f0 = pool.new_frame(PageKind.LEAF)
        pool.unpin(f0.page.pid)
        pool.drop(f0.page.pid)
        f1 = pool.new_frame(PageKind.LEAF)
        f2 = pool.new_frame(PageKind.LEAF)  # fits: slot was released
        assert pool.resident(f1.page.pid) and pool.resident(f2.page.pid)
        assert pool.evictions == 0

    def test_second_chance_prefers_cold_frames(self):
        """A frame re-pinned during the sweep window gets a second
        chance; an untouched one is evicted first."""
        _, pool = make_pool(capacity=3)
        f1 = pool.new_frame(PageKind.LEAF)
        pool.unpin(f1.page.pid)
        f2 = pool.new_frame(PageKind.LEAF)
        pool.unpin(f2.page.pid)
        f3 = pool.new_frame(PageKind.LEAF)
        pool.unpin(f3.page.pid)
        # First overflow: the sweep clears every ref bit and evicts the
        # frame at the hand — f1.  Survivors f2 and f3 are now cold.
        pool.new_frame(PageKind.LEAF)
        assert not pool.resident(f1.page.pid)
        # Touch f2 so only its bit is set again; the hand sits on it.
        pool.pin(f2.page.pid)
        pool.unpin(f2.page.pid)
        # Second overflow: f2 spends its reference bit (second chance)
        # and the cold f3 right behind it is evicted instead.
        pool.new_frame(PageKind.LEAF)
        assert pool.resident(f2.page.pid)
        assert not pool.resident(f3.page.pid)
        assert pool.evictions == 2

    def test_ring_survives_many_drop_reload_cycles(self):
        """Stale ring slots are reaped lazily and the ring is compacted;
        heavy drop/reload churn must not grow it without bound."""
        _, pool = make_pool(capacity=8)
        frame = pool.new_frame(PageKind.LEAF)
        pid = frame.page.pid
        frame.mark_dirty(1)
        pool.unpin(pid)
        pool.flush_page(pid)
        for _ in range(100):
            pool.drop(pid)
            pool.pin(pid)
            pool.unpin(pid)
        assert len(pool._ring) <= 2 * len(pool._frames) + 8
        # and eviction still works afterwards
        for _ in range(10):
            f = pool.new_frame(PageKind.LEAF)
            pool.unpin(f.page.pid)
        assert pool.evictions > 0


class TestWALRule:
    def test_flush_forces_log_first(self):
        flushed = []
        store = PageStore()
        pool = BufferPool(store, capacity=4, wal_flush=flushed.append)
        frame = pool.new_frame(PageKind.LEAF)
        frame.mark_dirty(17)
        pool.flush_page(frame.page.pid)
        assert flushed == [17]
        assert store.read(frame.page.pid).page_lsn == 17

    def test_eviction_respects_wal(self):
        flushed = []
        store = PageStore()
        pool = BufferPool(store, capacity=1, wal_flush=flushed.append)
        f1 = pool.new_frame(PageKind.LEAF)
        f1.page.add_entry(LeafEntry(1, "r1"))
        f1.mark_dirty(9)
        pool.unpin(f1.page.pid)
        pool.new_frame(PageKind.LEAF)
        assert flushed == [9]

    def test_rec_lsn_is_first_dirtier(self):
        _, pool = make_pool()
        frame = pool.new_frame(PageKind.LEAF)
        frame.mark_dirty(5)
        frame.mark_dirty(9)
        assert frame.rec_lsn == 5
        assert frame.page.page_lsn == 9
        assert pool.dirty_page_table() == {frame.page.pid: 5}


class TestFixUnfix:
    def test_fixed_context_manager(self):
        _, pool = make_pool()
        frame = pool.new_frame(PageKind.LEAF)
        pid = frame.page.pid
        pool.unpin(pid)
        with pool.fixed(pid, LatchMode.X) as fixed:
            assert fixed.latch.held_by_me() == LatchMode.X
            assert fixed.pin_count == 1
        assert frame.latch.held_by_me() is None
        assert frame.pin_count == 0


class TestCrash:
    def test_crash_loses_unflushed_state(self):
        store, pool = make_pool()
        frame = pool.new_frame(PageKind.LEAF)
        frame.page.add_entry(LeafEntry(1, "r1"))
        frame.mark_dirty(2)
        pid = frame.page.pid
        pool.crash()
        assert not pool.resident(pid)
        assert not store.exists(pid)  # never flushed: gone

    def test_crash_keeps_flushed_state(self):
        store, pool = make_pool()
        frame = pool.new_frame(PageKind.LEAF)
        frame.page.add_entry(LeafEntry(1, "r1"))
        frame.mark_dirty(2)
        pid = frame.page.pid
        pool.flush_page(pid)
        frame2 = pool.pin(pid)  # still resident
        frame2.page.add_entry(LeafEntry(2, "r2"))
        frame2.mark_dirty(3)
        pool.crash()
        assert store.read(pid).page_lsn == 2
        assert len(store.read(pid).entries) == 1

    def test_crash_resets_the_capacity_budget(self):
        _, pool = make_pool(capacity=8)
        pids = [pool.new_frame(PageKind.LEAF).page.pid for _ in range(6)]
        pool.crash()
        for pid in pids:
            assert not pool.resident(pid)
        # pinned frames vanished with their slots: a full refill fits
        for _ in range(8):
            pool.new_frame(PageKind.LEAF)


class TestConcurrentPin:
    def test_counters_updated_under_pool_lock(self):
        """The hit/miss counters are plain ints whose mutation happens
        while the pool mutex is held (the invariant buffer.py's comment
        points at this test for).  Exactness under a pin race is the
        observable consequence: if any increment ran outside the mutex,
        this count would eventually come up short."""
        store, pool = make_pool(capacity=16)
        pids = []
        for n in range(8):
            frame = pool.new_frame(PageKind.LEAF)
            frame.mark_dirty(n + 1)  # so flush_page really writes
            pids.append(frame.page.pid)
            pool.unpin(frame.page.pid)
        # drop half so the race mixes hits and misses
        for pid in pids[4:]:
            pool.flush_page(pid)
            pool.drop(pid)
        base_hits, base_misses = pool.hits, pool.misses
        per_thread = 200
        barrier = threading.Barrier(8)

        def pinner(seed):
            barrier.wait()
            for i in range(per_thread):
                pid = pids[(seed + i) % len(pids)]
                pool.pin(pid)
                pool.unpin(pid)

        threads = [
            threading.Thread(target=pinner, args=(n,)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = 8 * per_thread
        hits = pool.hits - base_hits
        misses = pool.misses - base_misses
        assert hits + misses == total  # nothing lost to the race
        assert hits > 0 and misses > 0

    def test_concurrent_miss_coalesces(self):
        store, pool = make_pool(capacity=8, io_delay=0.01)
        frame = pool.new_frame(PageKind.LEAF)
        pid = frame.page.pid
        frame.mark_dirty(1)
        pool.unpin(pid)
        pool.flush_page(pid)
        pool.drop(pid)
        results = []

        def pinner():
            f = pool.pin(pid)
            results.append(f)
            pool.unpin(pid)

        threads = [threading.Thread(target=pinner) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(f) for f in results}) == 1  # one shared frame
        assert store.stats.snapshot()["reads"] == 1


def resident_pin_acquisitions(pool, rounds=100):
    """Pool-mutex acquisitions per pin + unpin of one resident page."""
    frame = pool.new_frame(PageKind.LEAF)
    before = pool.lock_acquisitions
    for _ in range(rounds):
        pool.pin(frame.page.pid)
        pool.unpin(frame.page.pid)
    return (pool.lock_acquisitions - before) / rounds


class TestHotPathDormant:
    """With faults and protocol checks off, a resident pin + unpin takes
    the pool mutex exactly twice and touches nothing else they own."""

    def test_fault_machinery_dormant_on_resident_pin(self):
        store, pool = make_pool(capacity=8)
        assert pool._track_fixes is False  # no plan: no pin ledger
        assert resident_pin_acquisitions(pool) == 2
        for counter in (
            "storage.io_retries",
            "storage.torn_pages_detected",
            "storage.torn_pages_healed",
            "storage.write_faults",
        ):
            assert pool.metrics.counter(counter).value == 0, counter
        assert store.stats.checksum_failures == 0
        assert store.stats.faults_injected == 0

    def test_protocol_checks_dormant_on_resident_pin(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROTOCOL_CHECKS", raising=False)
        db = Database(page_capacity=8, pool_capacity=64)
        # checks off => no witness is constructed or attached anywhere
        assert db.protocol_checks is False
        assert db.witness is None
        assert db.store.witness is None
        assert db.locks.witness is None
        assert db.pool._witness is None
        assert resident_pin_acquisitions(db.pool) == 2
        tree = db.create_tree("hot", BTreeExtension())
        txn = db.begin()
        for i in range(32):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        # frame latches were built without a witness binding too
        root_latch = db.pool.pin(tree.root_pid).latch
        db.pool.unpin(tree.root_pid)
        assert root_latch.witness is None
