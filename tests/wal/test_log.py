"""Unit tests for the log manager: LSNs, backchains, flush, crash, NTAs."""

import pytest

from repro.errors import WALError
from repro.wal.log import LogManager
from repro.wal.records import (
    NULL_LSN,
    AddLeafEntryRecord,
    CommitRecord,
    DummyClr,
    EndRecord,
)


def rec(xid: int) -> CommitRecord:
    return CommitRecord(xid=xid)


class TestAppend:
    def test_lsns_are_monotonic_from_one(self):
        log = LogManager()
        assert log.append(rec(1)) == 1
        assert log.append(rec(1)) == 2
        assert log.append(rec(2)) == 3
        assert log.end_lsn == 3

    def test_backchain_per_transaction(self):
        log = LogManager()
        log.append(rec(1))  # lsn 1
        log.append(rec(2))  # lsn 2
        log.append(rec(1))  # lsn 3
        r3 = log.get(3)
        assert r3.prev_lsn == 1
        assert log.get(2).prev_lsn == NULL_LSN
        assert log.last_lsn_of(1) == 3
        assert log.last_lsn_of(2) == 2

    def test_end_record_drops_the_backchain_head(self):
        log = LogManager()
        log.append(rec(1))
        log.append(rec(2))
        assert log.append(EndRecord(xid=1)) == 3
        assert log.get(3).prev_lsn == 1  # chained before the drop
        assert log.last_lsn_of(1) == NULL_LSN
        assert log.last_lsn_of(2) == 2
        log.append_many([rec(3), EndRecord(xid=3), EndRecord(xid=2)])
        assert log._last_lsn_of == {}

    def test_get_out_of_range_raises(self):
        log = LogManager()
        with pytest.raises(WALError):
            log.get(1)
        log.append(rec(1))
        with pytest.raises(WALError):
            log.get(2)

    def test_records_from_iterates_in_order(self):
        log = LogManager()
        for _ in range(5):
            log.append(rec(1))
        lsns = [r.lsn for r in log.records_from(3)]
        assert lsns == [3, 4, 5]

    def test_records_from_sees_appends_during_iteration(self):
        log = LogManager()
        log.append(rec(1))
        it = log.records_from(1)
        assert next(it).lsn == 1
        log.append(rec(1))
        assert next(it).lsn == 2


class TestAppendMany:
    def test_batch_append_assigns_contiguous_lsns(self):
        log = LogManager()
        records = [
            AddLeafEntryRecord(
                xid=1, tree="t", page_id=7, key=i, rid=f"r{i}"
            )
            for i in range(4)
        ]
        lsns = log.append_many(records)
        assert lsns == [1, 2, 3, 4]
        assert [r.lsn for r in records] == lsns
        # per-txn backchain threads through the batch
        assert records[0].prev_lsn == 0
        assert records[3].prev_lsn == 3
        assert log.last_lsn_of(1) == 4

    def test_empty_batch(self):
        log = LogManager()
        assert log.append_many([]) == []


class TestDurability:
    def test_flush_moves_boundary(self):
        log = LogManager()
        log.append(rec(1))
        log.append(rec(1))
        assert log.flushed_lsn == 0
        log.flush(1)
        assert log.flushed_lsn == 1
        log.flush()
        assert log.flushed_lsn == 2

    def test_crash_truncates_unflushed_tail(self):
        log = LogManager()
        for _ in range(4):
            log.append(rec(1))
        log.flush(2)
        log.crash()
        assert log.end_lsn == 2
        assert [r.lsn for r in log.records_from(1)] == [1, 2]

    def test_flush_beyond_end_is_clamped(self):
        log = LogManager()
        log.append(rec(1))
        log.flush(99)
        assert log.flushed_lsn == 1


class TestNestedTopActions:
    def test_end_nta_writes_dummy_clr_skipping_action(self):
        log = LogManager()
        log.append(rec(1))  # lsn 1: pre-NTA work
        saved = log.begin_nta(1)
        assert saved == 1
        log.append(rec(1))  # lsn 2: inside NTA
        log.append(rec(1))  # lsn 3: inside NTA
        clr_lsn = log.end_nta(1, saved)
        dummy = log.get(clr_lsn)
        assert isinstance(dummy, DummyClr)
        assert dummy.undo_next == 1  # rollback skips lsns 2-3
        assert log.flushed_lsn >= clr_lsn  # NTAs are force-committed

    def test_nta_with_no_prior_work(self):
        log = LogManager()
        saved = log.begin_nta(5)
        assert saved == NULL_LSN
        log.append(rec(5))
        clr_lsn = log.end_nta(5, saved)
        assert log.get(clr_lsn).undo_next == NULL_LSN

    def test_nested_ntas(self):
        log = LogManager()
        outer = log.begin_nta(1)
        log.append(rec(1))  # lsn 1
        inner = log.begin_nta(1)
        log.append(rec(1))  # lsn 2
        inner_clr = log.end_nta(1, inner)
        assert log.get(inner_clr).undo_next == 1
        outer_clr = log.end_nta(1, outer)
        assert log.get(outer_clr).undo_next == NULL_LSN


class TestRestartSupport:
    def test_set_last_lsn_restores_backchain(self):
        log = LogManager()
        log.append(rec(1))
        log.crash()  # nothing flushed: log empty, backchain cleared
        assert log.end_lsn == 0
        log.append(rec(1))
        assert log.get(1).prev_lsn == NULL_LSN
        log.set_last_lsn(1, 1)
        log.append(rec(1))
        assert log.get(2).prev_lsn == 1
