"""Pool-wide budget, WAL-on-eviction and clock checks first written for
the hash-sharded pool.  The pool now has one mutex and one clock; these
behaviours did not depend on the sharding and still hold."""

import pytest

from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import LeafEntry, PageKind
from repro.sync.latch import LatchMode


def make_pool(capacity=16, wal_flush=None):
    store = PageStore()
    return store, BufferPool(store, capacity=capacity, wal_flush=wal_flush)


class TestGlobalCapacity:
    def test_all_pinned_raises_across_shards(self):
        _, pool = make_pool(capacity=2)
        pool.new_frame(PageKind.LEAF)
        pool.new_frame(PageKind.LEAF)
        with pytest.raises(BufferPoolError):
            pool.new_frame(PageKind.LEAF)


class TestShardedWALRule:
    def test_sharded_eviction_respects_wal(self):
        flushed = []
        store, pool = make_pool(capacity=1, wal_flush=flushed.append)
        f1 = pool.new_frame(PageKind.LEAF)
        f1.page.add_entry(LeafEntry(1, "r1"))
        f1.mark_dirty(9)
        pool.unpin(f1.page.pid)
        pool.new_frame(PageKind.LEAF)
        assert flushed == [9]
        assert store.read(f1.page.pid).entries[0].rid == "r1"


class TestClockEviction:
    def test_latched_frames_skipped_by_clock(self):
        _, pool = make_pool(capacity=2)
        f1 = pool.new_frame(PageKind.LEAF)
        f1.latch.acquire(LatchMode.S)
        pool.unpin(f1.page.pid)
        f2 = pool.new_frame(PageKind.LEAF)
        pool.unpin(f2.page.pid)
        pool.new_frame(PageKind.LEAF)
        assert pool.resident(f1.page.pid)
        assert not pool.resident(f2.page.pid)
        f1.latch.release()
