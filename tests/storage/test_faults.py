"""Deterministic storage fault injection (DESIGN.md §9).

Unit tests of the fault plan and the storage layers' responses:
transient-read retry, permanent-write dirty-state preservation,
torn-write detection and self-healing, and checksum round-trips.
"""

import pytest

from repro.errors import DiskWriteError, TornPageError, TransientIOError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import (
    LeafEntry,
    Page,
    PageKind,
    page_checksum,
    page_fingerprint,
)


def make_page(store, n=3):
    page = store.new_page(PageKind.LEAF)
    for i in range(n):
        page.add_entry(LeafEntry(i, f"r{i}"))
    page.page_lsn = 7
    return page


class TestFaultPlanDeterminism:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(42)
        b = FaultPlan.random(42)
        assert [s.describe() for s in a.specs] == [
            s.describe() for s in b.specs
        ]

    def test_different_seeds_differ(self):
        described = {
            tuple(s.describe() for s in FaultPlan.random(seed).specs)
            for seed in range(20)
        }
        assert len(described) > 1

    def test_kind_filter(self):
        plan = FaultPlan.random(1, kinds={FaultKind.TRANSIENT_READ})
        assert [s.kind for s in plan.specs] == [FaultKind.TRANSIENT_READ]

    def test_consultation_sequence_is_reproducible(self):
        def run():
            plan = FaultPlan(
                [FaultSpec(FaultKind.TRANSIENT_READ, op_index=2, times=2)]
            )
            return [plan.on_read(pid) for pid in (5, 5, 5, 5)]

        assert run() == run()
        assert run()[0] is None
        assert run()[1] is FaultKind.TRANSIENT_READ


class TestTransientReads:
    def test_store_raises_typed_error(self):
        plan = FaultPlan([FaultSpec(FaultKind.TRANSIENT_READ, op_index=1)])
        store = PageStore(fault_plan=plan)
        page = make_page(store)
        store.write(page)
        with pytest.raises(TransientIOError):
            store.read(page.pid)
        assert store.read(page.pid).pid == page.pid  # next attempt clean

    def test_pool_retries_through_transient_faults(self):
        plan = FaultPlan(
            [FaultSpec(FaultKind.TRANSIENT_READ, op_index=1, times=3)]
        )
        store = PageStore(fault_plan=plan)
        page = make_page(store)
        store.write(page)
        pool = BufferPool(store)
        frame = pool.pin(page.pid)
        assert frame.page.pid == page.pid
        assert pool.metrics.counter("storage.io_retries").value == 3

    def test_pool_surfaces_error_when_retries_exhausted(self):
        plan = FaultPlan(
            [FaultSpec(FaultKind.TRANSIENT_READ, op_index=1, times=10)]
        )
        store = PageStore(fault_plan=plan)
        page = make_page(store)
        store.write(page)
        pool = BufferPool(store)
        with pytest.raises(TransientIOError):
            pool.pin(page.pid)
        retries = pool.metrics.counter("storage.io_retries").value
        assert retries == BufferPool.IO_RETRIES


class TestPermanentWrites:
    def test_write_raises_and_persists_nothing(self):
        plan = FaultPlan([FaultSpec(FaultKind.PERMANENT_WRITE, op_index=1)])
        store = PageStore(fault_plan=plan)
        page = make_page(store)
        with pytest.raises(DiskWriteError):
            store.write(page)
        assert not store.exists(page.pid)

    def test_poisoned_page_is_sticky_until_restart(self):
        plan = FaultPlan([FaultSpec(FaultKind.PERMANENT_WRITE, op_index=1)])
        store = PageStore(fault_plan=plan)
        page = make_page(store)
        for _ in range(3):
            with pytest.raises(DiskWriteError):
                store.write(page)
        plan.note_restart()  # "repaired hardware"
        store.write(page)
        assert store.exists(page.pid)

    def test_flush_page_restores_dirty_state(self):
        plan = FaultPlan([FaultSpec(FaultKind.PERMANENT_WRITE, op_index=1)])
        store = PageStore(fault_plan=plan)
        pool = BufferPool(store)
        frame = pool.new_frame(PageKind.LEAF)
        frame.mark_dirty(5)
        with pytest.raises(DiskWriteError):
            pool.flush_page(frame.page.pid)
        assert frame.dirty
        assert frame.rec_lsn == 5

    def test_flush_all_attempts_every_page_then_reraises(self):
        plan = FaultPlan(
            [FaultSpec(FaultKind.PERMANENT_WRITE, op_index=1, pid=0)]
        )
        store = PageStore(fault_plan=plan)
        pool = BufferPool(store)
        poisoned = pool.new_frame(PageKind.LEAF)  # pid 0
        healthy = pool.new_frame(PageKind.LEAF)  # pid 1
        poisoned.mark_dirty(1)
        healthy.mark_dirty(2)
        with pytest.raises(DiskWriteError):
            pool.flush_all()
        # the healthy page still made it to disk
        assert store.exists(healthy.page.pid)
        assert not store.exists(poisoned.page.pid)
        assert poisoned.dirty


class TestTornWrites:
    def plan_and_store(self):
        plan = FaultPlan([FaultSpec(FaultKind.TORN_WRITE, op_index=2)])
        store = PageStore(fault_plan=plan)
        return plan, store

    def test_torn_write_detected_on_read(self):
        plan, store = self.plan_and_store()
        page = make_page(store)
        store.write(page)  # write 1: clean
        page.add_entry(LeafEntry(99, "new"))
        store.write(page)  # write 2: torn
        with pytest.raises(TornPageError):
            store.read(page.pid)
        assert store.stats.checksum_failures == 1

    def test_pool_heals_torn_page_via_rebuilder(self):
        plan, store = self.plan_and_store()
        page = make_page(store)
        store.write(page)
        intended = page.snapshot()
        intended.add_entry(LeafEntry(99, "new"))
        store.write(intended)  # torn
        pool = BufferPool(store)
        pool.page_rebuilder = lambda pid: intended.snapshot()
        frame = pool.pin(page.pid)
        assert frame.page.find_leaf_entry(99, "new") is not None
        assert pool.metrics.counter("storage.torn_pages_healed").value == 1
        # the healed image was re-persisted: a direct read is clean now
        assert store.read(page.pid).find_leaf_entry(99, "new") is not None

    def test_unhealable_torn_page_surfaces_typed_error(self):
        plan, store = self.plan_and_store()
        page = make_page(store)
        store.write(page)
        page.add_entry(LeafEntry(99, "new"))
        store.write(page)  # torn
        pool = BufferPool(store)  # no rebuilder
        with pytest.raises(TornPageError):
            pool.pin(page.pid)


class TestChecksums:
    def test_roundtrip_clean(self):
        store = PageStore()
        page = make_page(store)
        store.write(page)
        got = store.read(page.pid)
        assert page_fingerprint(got) == page_fingerprint(page)

    def test_fingerprint_covers_entries_and_header(self):
        store = PageStore()
        a = make_page(store)
        b = a.snapshot()
        assert page_checksum(a) == page_checksum(b)
        b.entries[0].deleted = True
        assert page_checksum(a) != page_checksum(b)
        c = a.snapshot()
        c.nsn += 1
        assert page_checksum(a) != page_checksum(c)

    def test_checksums_can_be_disabled(self):
        plan = FaultPlan([FaultSpec(FaultKind.TORN_WRITE, op_index=2)])
        store = PageStore(fault_plan=plan, checksums=False)
        page = make_page(store)
        store.write(page)
        page.add_entry(LeafEntry(99, "new"))
        store.write(page)
        store.read(page.pid)  # torn but unverified: no error


class TestMaxDurableLsn:
    def test_tracks_highest_persisted_page_lsn(self):
        store = PageStore()
        assert store.max_durable_lsn() == 0
        a = make_page(store)
        a.page_lsn = 11
        b = make_page(store)
        b.page_lsn = 30
        store.write(a)
        store.write(b)
        assert store.max_durable_lsn() == 30
