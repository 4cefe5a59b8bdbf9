"""Golden bytes for ``record_fingerprint``.

The fingerprint stands in for a WAL record's serialized form, so caching
the per-class field list must not move a single byte: every Table 1
record type (plus one record embedding a page image) is stamped with a
full header and a representative payload, and its fingerprint and CRC
are compared with the values the uncached ``dataclasses.fields()`` walk
produced (recorded at commit 0e890d9).
"""

import zlib

import pytest

from repro.ext.btree import Interval
from repro.storage.page import InternalEntry, LeafEntry, Page, PageKind
from repro.wal.records import (
    AddLeafEntryRecord,
    FreePageRecord,
    GarbageCollectionRecord,
    GetPageRecord,
    InternalEntryAddRecord,
    InternalEntryDeleteRecord,
    InternalEntryUpdateRecord,
    MarkLeafEntryRecord,
    PageImageClr,
    ParentEntryUpdateRecord,
    SplitRecord,
    TABLE1_RECORD_TYPES,
    record_fingerprint,
)


def _image() -> Page:
    page = Page(pid=9, kind=PageKind.INTERNAL, level=1)
    page.nsn = 4
    page.bp = Interval(0, 90)
    page.entries.append(InternalEntry(Interval(0, 40), 3))
    page.entries.append(InternalEntry(Interval(41, 90, hi_incl=False), 5))
    return page


def samples() -> dict:
    """One stamped record per type, keyed by class name."""
    records = [
        ParentEntryUpdateRecord(
            xid=7, new_bp=Interval(1, 9), child_pid=3, parent_pid=2
        ),
        SplitRecord(
            xid=7,
            orig_pid=3,
            new_pid=5,
            moved_entries=[LeafEntry(8, "r8"), LeafEntry(9, "r9", True, 6)],
            level=0,
            kind=PageKind.LEAF,
            old_nsn=1,
            new_nsn=2,
            old_rightlink=4,
            old_bp=Interval(1, 9),
            orig_new_bp=Interval(1, 7),
            new_page_bp=Interval(8, 9),
            capacity=4,
        ),
        GarbageCollectionRecord(xid=7, page_id=3, rids=[(1, "r1"), (2, "r2")]),
        InternalEntryAddRecord(
            xid=7, page_id=2, pred=Interval(8, 9, lo_incl=False), child=5
        ),
        InternalEntryUpdateRecord(
            xid=7,
            page_id=2,
            child=3,
            new_bp=Interval(1, 7),
            old_bp=Interval(1, 9),
        ),
        InternalEntryDeleteRecord(xid=7, page_id=2, pred="kéy", child=5),
        AddLeafEntryRecord(xid=7, tree="t", page_id=3, nsn=2, key=5, rid="r5"),
        MarkLeafEntryRecord(
            xid=7, tree="t", page_id=3, nsn=2, key=(1, "a"), rid=("h", 5)
        ),
        GetPageRecord(xid=7, page_id=5),
        FreePageRecord(xid=7, page_id=5),
        PageImageClr(xid=7, page_id=9, image=_image()),
    ]
    for lsn, record in enumerate(records, start=11):
        record.lsn = lsn
        record.prev_lsn = lsn - 1
        record.stamp_checksum()
    records[-1].undo_next = 3
    records[-1].stamp_checksum()
    return {type(record).__name__: record for record in records}


# fmt: off
GOLDEN: dict = {
    "AddLeafEntryRecord": (
        b"AddLeafEntryRecord|xid=7|lsn=17|prev_lsn=16|undo_next=None|undoable=True|tree='t'|page_id=3|nsn=2|key=5|rid='r5'",
        3463129569,
    ),
    "FreePageRecord": (
        b'FreePageRecord|xid=7|lsn=20|prev_lsn=19|undo_next=None|undoable=True|page_id=5',
        2443150659,
    ),
    "GarbageCollectionRecord": (
        b"GarbageCollectionRecord|xid=7|lsn=13|prev_lsn=12|undo_next=None|undoable=False|page_id=3|rids=[(1, 'r1'), (2, 'r2')]",
        623764340,
    ),
    "GetPageRecord": (
        b'GetPageRecord|xid=7|lsn=19|prev_lsn=18|undo_next=None|undoable=True|page_id=5',
        3781339637,
    ),
    "InternalEntryAddRecord": (
        b'InternalEntryAddRecord|xid=7|lsn=14|prev_lsn=13|undo_next=None|undoable=True|page_id=2|pred=Interval(lo=8, hi=9, lo_incl=False, hi_incl=True)|child=5',
        2427885935,
    ),
    "InternalEntryDeleteRecord": (
        b"InternalEntryDeleteRecord|xid=7|lsn=16|prev_lsn=15|undo_next=None|undoable=True|page_id=2|pred='k\xc3\xa9y'|child=5",
        2546671287,
    ),
    "InternalEntryUpdateRecord": (
        b'InternalEntryUpdateRecord|xid=7|lsn=15|prev_lsn=14|undo_next=None|undoable=True|page_id=2|child=3|new_bp=Interval(lo=1, hi=7, lo_incl=True, hi_incl=True)|old_bp=Interval(lo=1, hi=9, lo_incl=True, hi_incl=True)',
        2428397811,
    ),
    "MarkLeafEntryRecord": (
        b"MarkLeafEntryRecord|xid=7|lsn=18|prev_lsn=17|undo_next=None|undoable=True|tree='t'|page_id=3|nsn=2|key=(1, 'a')|rid=('h', 5)",
        856658606,
    ),
    "PageImageClr": (
        b'PageImageClr|xid=7|lsn=21|prev_lsn=20|undo_next=3|undoable=False|page_id=9|image=page:pid=9|kind=internal|level=1|nsn=4|rightlink=-1|page_lsn=0|capacity=64|bp=Interval(lo=0, hi=90, lo_incl=True, hi_incl=True)|I:Interval(lo=0, hi=40, lo_incl=True, hi_incl=True):3|I:Interval(lo=41, hi=90, lo_incl=True, hi_incl=False):5',
        3383064773,
    ),
    "ParentEntryUpdateRecord": (
        b'ParentEntryUpdateRecord|xid=7|lsn=11|prev_lsn=10|undo_next=None|undoable=False|new_bp=Interval(lo=1, hi=9, lo_incl=True, hi_incl=True)|child_pid=3|parent_pid=2',
        3212408545,
    ),
    "SplitRecord": (
        b"SplitRecord|xid=7|lsn=12|prev_lsn=11|undo_next=None|undoable=True|orig_pid=3|new_pid=5|moved_entries=[LeafEntry(key=8, rid='r8', deleted=False, delete_xid=None), LeafEntry(key=9, rid='r9', deleted=True, delete_xid=6)]|level=0|kind=<PageKind.LEAF: 'leaf'>|old_nsn=1|new_nsn=2|old_rightlink=4|old_bp=Interval(lo=1, hi=9, lo_incl=True, hi_incl=True)|orig_new_bp=Interval(lo=1, hi=7, lo_incl=True, hi_incl=True)|new_page_bp=Interval(lo=8, hi=9, lo_incl=True, hi_incl=True)|capacity=4",
        3047480723,
    ),
}
# fmt: on


def test_samples_cover_table1():
    assert set(samples()) >= {t.__name__ for t in TABLE1_RECORD_TYPES}


@pytest.mark.parametrize("name", sorted(samples()))
def test_fingerprint_bytes_and_crc_match_golden(name):
    record = samples()[name]
    fingerprint, crc = GOLDEN[name]
    assert record_fingerprint(record) == fingerprint
    assert record._fingerprint == fingerprint
    assert record.checksum == crc == zlib.crc32(fingerprint)
    assert record.verify_checksum()
