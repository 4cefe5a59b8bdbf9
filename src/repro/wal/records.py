"""Log record types — the executable form of the paper's Table 1.

Every structure-modification and content-change record from Table 1 is a
dataclass here, with its **redo** action (``redo_page``, page-oriented)
and its **undo** classification:

* *redo-only* records (Parent-Entry-Update, Garbage-Collection, every
  compensation record) have no undo,
* physically undoable records (Split, Internal-Entry-Add/Update/Delete,
  Get-Page, Free-Page) undo by visiting exactly the logged pages,
* leaf content records (Add-Leaf-Entry, Mark-Leaf-Entry) undo
  **logically** — the leaf must be re-located by rightlink traversal
  because the tree may have changed since (section 9.2).  Their undo is
  therefore performed by the tree, not here; recovery dispatches to the
  registered tree handler.

Compensation is expressed the ARIES way: the undo of a record writes a
*redo-only* record describing the compensating page change, carrying
``undo_next`` pointing at the predecessor of the record just undone.  Any
record with ``undo_next`` set behaves as a CLR: restart undo never undoes
it and resumes at ``undo_next``.  Nested-top-action commit is the
``DummyClr`` (§9.1 / [MHL+92]): its ``undo_next`` backchains around the
whole atomic action, which is how structure modifications survive the
rollback of the transaction that happened to execute them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import cache
from typing import Sequence

from repro.storage.page import (
    NO_PAGE,
    InternalEntry,
    LeafEntry,
    Page,
    PageId,
    PageKind,
    copy_value,
    page_fingerprint,
)

#: Sentinel LSN meaning "no record".
NULL_LSN = 0


@cache
def _fingerprint_fields(record_type: type) -> tuple[str, ...]:
    """Names of the fields a record of this class serializes, in
    declaration order (one ``dataclasses.fields()`` walk per class, not
    per append)."""
    return tuple(
        f.name
        for f in dataclass_fields(record_type)
        if f.name not in ("checksum", "_fingerprint")
    )


def record_fingerprint(record: "LogRecord") -> bytes:
    """Canonical byte encoding of a record's full content.

    This stands in for the serialized form a real WAL would write to
    disk.  Page images embedded in records are folded in through
    :func:`~repro.storage.page.page_fingerprint`; every other payload
    value goes in via ``repr`` (dataclass entries included).
    """
    record_type = type(record)
    parts = [record_type.__name__]
    for name in _fingerprint_fields(record_type):
        value = getattr(record, name)
        if isinstance(value, Page):
            parts.append(f"{name}=page:{page_fingerprint(value).decode()}")
        else:
            parts.append(f"{name}={value!r}")
    return "|".join(parts).encode("utf-8", "backslashreplace")


def record_checksum(record: "LogRecord") -> int:
    """CRC32 over a record's content as of *now* (header + payload).

    The log manager stamps each record at append time via
    :meth:`LogRecord.stamp_checksum`, which also captures the
    fingerprint bytes — modelling serialization: once a real WAL record
    hits disk, later in-memory mutation of objects it referenced (live
    entries, pages) cannot change the persisted bytes.  Restart
    recovery's truncation pass re-verifies checksums against those
    captured bytes; a mismatch marks the start of a corrupt log tail.
    """
    return zlib.crc32(record_fingerprint(record))


@dataclass
class LogRecord:
    """Common header of every log record.

    ``lsn`` and ``prev_lsn`` are assigned by the log manager at append
    time; ``prev_lsn`` backchains the records of one transaction.
    ``undo_next`` is only set on compensation records.
    """

    xid: int
    lsn: int = field(default=NULL_LSN, init=False)
    prev_lsn: int = field(default=NULL_LSN, init=False)
    undo_next: int | None = field(default=None, init=False)
    #: CRC32 over the record content, stamped by the log manager at
    #: append time (``None`` for records never appended).
    checksum: int | None = field(default=None, init=False, repr=False)
    #: fingerprint bytes captured at append time — the stand-in for the
    #: record's serialized on-disk form (see :func:`record_checksum`)
    _fingerprint: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    #: class-level flags refined by subclasses
    undoable: bool = field(default=False, init=False, repr=False)

    #: True when the record's undo is *logical* (performed by the tree via
    #: rightlink traversal, section 9.2) rather than page-oriented.  Plain
    #: class attribute, overridden in ``__post_init__`` by leaf records.
    logical_undo = False

    def affected_pages(self) -> Sequence[PageId]:
        """Page ids whose images this record's redo touches."""
        return ()

    def redo_page(self, page: Page) -> None:
        """Apply this record's effect to one of its affected pages.

        The caller has already verified ``page.page_lsn < self.lsn`` and
        will stamp ``page.page_lsn = self.lsn`` afterwards.
        """

    def stamp_checksum(self) -> None:
        """Capture the record's serialized form and checksum it.

        Called by the log manager at append time, after the header
        fields (lsn, prev_lsn) are assigned — the point where a real
        WAL would serialize the record to its disk buffer.
        """
        self._fingerprint = record_fingerprint(self)
        self.checksum = zlib.crc32(self._fingerprint)

    def verify_checksum(self) -> bool:
        """True when the stored checksum matches the appended content.

        Verification runs against the fingerprint bytes captured at
        append time (the simulated on-disk form), so mutation of live
        objects the record references after append — entries shared
        with resident pages — does not register as corruption, but an
        injected torn log write (checksum bit-flip) does.  Records that
        were never appended verify trivially — there is nothing
        persisted to contradict.
        """
        if self.checksum is None:
            return True
        if self._fingerprint is not None:
            return self.checksum == zlib.crc32(self._fingerprint)
        return self.checksum == record_checksum(self)

    def type_name(self) -> str:
        """The record's class name (diagnostics)."""
        return type(self).__name__


# ---------------------------------------------------------------------------
# transaction control records
# ---------------------------------------------------------------------------


@dataclass
class CommitRecord(LogRecord):
    """Transaction commit (forced to disk before commit is acknowledged)."""


@dataclass
class AbortRecord(LogRecord):
    """Transaction rollback has begun."""


@dataclass
class EndRecord(LogRecord):
    """Transaction fully finished (after commit or complete rollback)."""


@dataclass
class DummyClr(LogRecord):
    """End of a nested top action.

    ``undo_next`` is set (by the log manager at append) to the LSN that
    was the transaction's last record *before* the atomic action started,
    so rollback skips the whole structure modification.
    """


@dataclass
class CheckpointRecord(LogRecord):
    """A fuzzy checkpoint: active-transaction table + dirty page table.

    ``begin_lsn`` is the first LSN not yet assigned when the checkpoint
    began, read before either table: every record the tables may have
    missed lies at or above it, so restart analysis starts there (ARIES'
    begin/end checkpoint pair folded into one record).
    """

    begin_lsn: int = NULL_LSN
    att: dict[int, int] = field(default_factory=dict)  # xid -> last_lsn
    att_undo: dict[int, int] = field(default_factory=dict)  # xid -> undo_next
    dpt: dict[PageId, int] = field(default_factory=dict)  # pid -> recLSN


@dataclass
class TreeCreateRecord(LogRecord):
    """Catalog record: a tree was created with the given root page."""

    name: str = ""
    root_pid: PageId = NO_PAGE
    unique: bool = False
    nsn_source: str = "counter"

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.root_pid,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        page.kind = PageKind.LEAF
        page.level = 0
        page.nsn = 0
        page.rightlink = NO_PAGE
        page.entries = []
        page.bp = None


# ---------------------------------------------------------------------------
# Table 1: structure-modification records
# ---------------------------------------------------------------------------


@dataclass
class ParentEntryUpdateRecord(LogRecord):
    """Table 1 "Parent-Entry-Update" — redo-only.

    Fields per the paper: new BP, child page ID, parent page ID.  Redo
    updates the BP copy in the child and the corresponding slot in the
    parent.  Written as its own atomic action during the top-down BP
    update phase of an insertion (section 6).
    """

    new_bp: object = None
    child_pid: PageId = NO_PAGE
    parent_pid: PageId = NO_PAGE

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.child_pid, self.parent_pid)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        if page.pid == self.child_pid:
            page.bp = copy_value(self.new_bp)
        if page.pid == self.parent_pid:
            page.set_child_pred(self.child_pid, copy_value(self.new_bp))


@dataclass
class SplitRecord(LogRecord):
    """Table 1 "Split".

    Fields per the paper: original page ID, new page ID, the list of keys
    moved to the new page (we store the full entries), and the metadata
    needed to redo/undo the NSN and rightlink juggling of section 3: the
    original page's old NSN/rightlink/BP (undo) and the new values
    (redo).  The new sibling receives the original's *old* NSN and
    rightlink.
    """

    orig_pid: PageId = NO_PAGE
    new_pid: PageId = NO_PAGE
    moved_entries: list = field(default_factory=list)
    level: int = 0
    kind: PageKind = PageKind.LEAF
    old_nsn: int = 0
    new_nsn: int = 0
    old_rightlink: PageId = NO_PAGE
    old_bp: object = None
    orig_new_bp: object = None
    new_page_bp: object = None
    capacity: int = 64

    def __post_init__(self) -> None:
        self.undoable = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.orig_pid, self.new_pid)

    def _moved_rids(self) -> set:
        return {e.rid for e in self.moved_entries}

    def _moved_children(self) -> set:
        return {e.child for e in self.moved_entries}

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        if page.pid == self.orig_pid:
            if self.kind is PageKind.LEAF:
                moved = self._moved_rids()
                page.entries = [e for e in page.entries if e.rid not in moved]
            else:
                moved = self._moved_children()
                page.entries = [
                    e for e in page.entries if e.child not in moved
                ]
            page.nsn = self.new_nsn
            page.rightlink = self.new_pid
            page.bp = copy_value(self.orig_new_bp)
        if page.pid == self.new_pid:
            page.kind = self.kind
            page.level = self.level
            page.capacity = self.capacity
            page.entries = [e.copy() for e in self.moved_entries]
            page.nsn = self.old_nsn
            page.rightlink = self.old_rightlink
            page.bp = copy_value(self.new_page_bp)

    def undo_page(self, page: Page) -> None:
        """Page-oriented undo (only reachable when a crash interrupted
        the surrounding atomic action before its DummyClr)."""
        if page.pid == self.orig_pid:
            existing = (
                {e.rid for e in page.entries}
                if self.kind is PageKind.LEAF
                else {e.child for e in page.entries}
            )
            for entry in self.moved_entries:
                key = entry.rid if self.kind is PageKind.LEAF else entry.child
                if key not in existing:
                    page.entries.append(entry.copy())
            page.sort_entries()
            page.nsn = self.old_nsn
            page.rightlink = self.old_rightlink
            page.bp = copy_value(self.old_bp)
        # new page: no action necessary (Table 1); Get-Page undo frees it.


@dataclass
class RootSplitRecord(LogRecord):
    """Root split: the root page id is stable, its contents move down.

    The paper omits root splits "for brevity" (section 6); the standard
    construction — also used by PostgreSQL's GiST — keeps the root page
    id constant so there is no root-pointer race: the old root's entries
    move into two fresh children inside one atomic action while the root
    is X-latched.  Both children receive the root's *old* NSN (no
    traversal can ever have memorised a counter value below it after
    having read their downlinks) and are chained left-to-right.
    """

    root_pid: PageId = NO_PAGE
    left_pid: PageId = NO_PAGE
    right_pid: PageId = NO_PAGE
    left_entries: list = field(default_factory=list)
    right_entries: list = field(default_factory=list)
    left_bp: object = None
    right_bp: object = None
    child_kind: PageKind = PageKind.LEAF
    child_level: int = 0
    old_nsn: int = 0
    new_nsn: int = 0
    capacity: int = 64

    def __post_init__(self) -> None:
        self.undoable = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.root_pid, self.left_pid, self.right_pid)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        if page.pid == self.root_pid:
            page.kind = PageKind.INTERNAL
            page.level = self.child_level + 1
            page.nsn = self.new_nsn
            page.rightlink = NO_PAGE
            page.entries = [
                InternalEntry(copy_value(self.left_bp), self.left_pid),
                InternalEntry(copy_value(self.right_bp), self.right_pid),
            ]
        elif page.pid in (self.left_pid, self.right_pid):
            is_left = page.pid == self.left_pid
            page.kind = self.child_kind
            page.level = self.child_level
            page.capacity = self.capacity
            page.nsn = self.old_nsn
            page.rightlink = self.right_pid if is_left else NO_PAGE
            page.bp = copy_value(self.left_bp if is_left else self.right_bp)
            source = self.left_entries if is_left else self.right_entries
            page.entries = [e.copy() for e in source]

    def undo_page(self, page: Page) -> None:
        """Page-oriented undo (reached only when a crash interrupted the surrounding atomic action)."""
        if page.pid == self.root_pid:
            page.kind = self.child_kind
            page.level = self.child_level
            page.nsn = self.old_nsn
            page.rightlink = NO_PAGE
            page.entries = [
                e.copy() for e in (*self.left_entries, *self.right_entries)
            ]
            page.sort_entries()
        # children: no action; their Get-Page undos free them.


@dataclass
class RightlinkUpdateRecord(LogRecord):
    """Rewrite a node's rightlink around a deleted sibling.

    Part of node deletion (section 7.2): once the drain condition holds
    (no signaling locks — hence no direct or indirect references), the
    left neighbour's rightlink is spliced past the victim before the
    victim is freed.  The paper leaves this step implicit; it is required
    for the level chain to stay intact.
    """

    page_id: PageId = NO_PAGE
    new_rightlink: PageId = NO_PAGE
    old_rightlink: PageId = NO_PAGE

    def __post_init__(self) -> None:
        self.undoable = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        page.rightlink = self.new_rightlink

    def undo_page(self, page: Page) -> None:
        """Page-oriented undo (reached only when a crash interrupted the surrounding atomic action)."""
        page.rightlink = self.old_rightlink


@dataclass
class GarbageCollectionRecord(LogRecord):
    """Table 1 "Garbage-Collection" — redo-only.

    Fields: page ID and the RID list of the entries physically removed
    (all of them logically deleted by committed transactions, §7.1).
    """

    page_id: PageId = NO_PAGE
    #: the collected entries as (key, rid) pairs — the full pair is the
    #: removal key so a live re-insert of the same RID under another key
    #: can never be swept with its old tombstone
    rids: list = field(default_factory=list)

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        page.remove_leaf_pairs(set(self.rids))


@dataclass
class InternalEntryAddRecord(LogRecord):
    """Table 1 "Internal-Entry-Add" (written during recursive split)."""

    page_id: PageId = NO_PAGE
    pred: object = None
    child: PageId = NO_PAGE

    def __post_init__(self) -> None:
        self.undoable = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        if page.find_child_entry(self.child) is None:
            page.add_entry(InternalEntry(copy_value(self.pred), self.child))

    def undo_page(self, page: Page) -> None:
        """Page-oriented undo (reached only when a crash interrupted the surrounding atomic action)."""
        page.remove_child_entry(self.child)


@dataclass
class InternalEntryUpdateRecord(LogRecord):
    """Table 1 "Internal-Entry-Update" (written during recursive split)."""

    page_id: PageId = NO_PAGE
    child: PageId = NO_PAGE
    new_bp: object = None
    old_bp: object = None

    def __post_init__(self) -> None:
        self.undoable = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        page.set_child_pred(self.child, copy_value(self.new_bp))

    def undo_page(self, page: Page) -> None:
        """Page-oriented undo (reached only when a crash interrupted the surrounding atomic action)."""
        page.set_child_pred(self.child, copy_value(self.old_bp))


@dataclass
class InternalEntryDeleteRecord(LogRecord):
    """Table 1 "Internal-Entry-Delete" (written during node deletion)."""

    page_id: PageId = NO_PAGE
    pred: object = None
    child: PageId = NO_PAGE

    def __post_init__(self) -> None:
        self.undoable = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        page.remove_child_entry(self.child)

    def undo_page(self, page: Page) -> None:
        """Page-oriented undo (reached only when a crash interrupted the surrounding atomic action)."""
        if page.find_child_entry(self.child) is None:
            page.add_entry(InternalEntry(copy_value(self.pred), self.child))


@dataclass
class GetPageRecord(LogRecord):
    """Table 1 "Get-Page" — page allocation (during recursive split).

    Redo marks the page unavailable in the allocation map; undo marks it
    available again.  Handled by recovery against the page store rather
    than a page image.
    """

    page_id: PageId = NO_PAGE

    def __post_init__(self) -> None:
        self.undoable = True


@dataclass
class FreePageRecord(LogRecord):
    """Table 1 "Free-Page" — page deallocation (during node deletion)."""

    page_id: PageId = NO_PAGE

    def __post_init__(self) -> None:
        self.undoable = True


# ---------------------------------------------------------------------------
# Table 1: leaf content records (transactional, logical undo)
# ---------------------------------------------------------------------------


@dataclass
class AddLeafEntryRecord(LogRecord):
    """Table 1 "Add-Leaf-Entry".

    Fields: page ID, the page's NSN at insert time (the starting point
    for the logical-undo rightlink traversal), and the new entry.  The
    owning tree's name routes the *logical* undo to the right tree
    object at rollback/restart time.
    """

    tree: str = ""
    page_id: PageId = NO_PAGE
    nsn: int = 0
    key: object = None
    rid: object = None

    def __post_init__(self) -> None:
        self.undoable = True
        self.logical_undo = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        if page.find_leaf_entry(self.key, self.rid) is None:
            page.add_entry(LeafEntry(copy_value(self.key), self.rid))


@dataclass
class ReviveLeafEntryRecord(AddLeafEntryRecord):
    """Add-Leaf-Entry of a pair whose own tombstone is still on the leaf.

    A leaf holds a ``(key, rid)`` pair at most once, so the insert
    clears the deletion mark rather than adding a second entry.
    ``delete_xid`` is the tombstone's deleter: the logical undo re-marks
    the entry with it (:class:`RemarkLeafEntryClr`) instead of removing
    the entry, leaving the pair exactly as deleted as the insert found
    it.
    """

    delete_xid: int | None = None

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        entry = page.find_leaf_entry(self.key, self.rid)
        if entry is not None:
            entry.deleted = False
            entry.delete_xid = None


@dataclass
class MarkLeafEntryRecord(LogRecord):
    """Table 1 "Mark-Leaf-Entry" — logical deletion of a leaf entry."""

    tree: str = ""
    page_id: PageId = NO_PAGE
    nsn: int = 0
    key: object = None
    rid: object = None

    def __post_init__(self) -> None:
        self.undoable = True
        self.logical_undo = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        entry = page.find_leaf_entry(self.key, self.rid)
        if entry is not None:
            entry.deleted = True
            entry.delete_xid = self.xid


# ---------------------------------------------------------------------------
# compensation (redo-only) records written by logical undo
# ---------------------------------------------------------------------------


@dataclass
class RemoveLeafEntryClr(LogRecord):
    """CLR compensating Add-Leaf-Entry: physically remove the entry."""

    page_id: PageId = NO_PAGE
    key: object = None
    rid: object = None

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        page.entries = [
            e
            for e in page.entries
            if not (e.rid == self.rid and e.key == self.key)
        ]


@dataclass
class UnmarkLeafEntryClr(LogRecord):
    """CLR compensating Mark-Leaf-Entry: clear the deletion marker."""

    page_id: PageId = NO_PAGE
    key: object = None
    rid: object = None

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        entry = page.find_leaf_entry(self.key, self.rid)
        if entry is not None:
            entry.deleted = False
            entry.delete_xid = None


@dataclass
class RemarkLeafEntryClr(LogRecord):
    """CLR compensating a reviving Add-Leaf-Entry: restore the mark."""

    page_id: PageId = NO_PAGE
    key: object = None
    rid: object = None
    delete_xid: int | None = None

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        entry = page.find_leaf_entry(self.key, self.rid)
        if entry is not None:
            entry.deleted = True
            entry.delete_xid = self.delete_xid


@dataclass
class PageImageClr(LogRecord):
    """CLR restoring a full page image (undo of an interrupted split)."""

    page_id: PageId = NO_PAGE
    image: Page | None = None

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        if self.image is None:
            return
        restored = self.image.snapshot()
        page.kind = restored.kind
        page.level = restored.level
        page.nsn = restored.nsn
        page.rightlink = restored.rightlink
        page.capacity = restored.capacity
        page.bp = restored.bp
        page.entries = restored.entries


@dataclass
class RootReplaceRecord(LogRecord):
    """Undoable full-image replacement of the (stable) root page.

    Written by :meth:`~repro.gist.tree.GiST.bulk_load`'s final attach
    step: the freshly built level structure becomes reachable by
    swapping the empty root leaf's image for an internal node pointing
    at the new top level.  Unlike :class:`PageImageClr` this record is
    *undoable*: if restart undo rolls back the surrounding nested top
    action after the attach hit disk, the page-oriented undo restores
    the old root image *before* the lower-LSN :class:`GetPageRecord`
    undos free the now-unreachable child pages — the root never points
    at a freed page.
    """

    page_id: PageId = NO_PAGE
    new_image: Page | None = None
    old_image: Page | None = None

    def __post_init__(self) -> None:
        self.undoable = True

    def affected_pages(self) -> Sequence[PageId]:
        """Pages whose images this record's redo touches."""
        return (self.page_id,)

    def redo_page(self, page: Page) -> None:
        """Apply this record's redo action to one affected page."""
        self._apply(page, self.new_image)

    def undo_page(self, page: Page) -> None:
        """Restore the pre-attach root image."""
        self._apply(page, self.old_image)

    @staticmethod
    def _apply(page: Page, image: Page | None) -> None:
        if image is None:
            return
        restored = image.snapshot()
        page.kind = restored.kind
        page.level = restored.level
        page.nsn = restored.nsn
        page.rightlink = restored.rightlink
        page.capacity = restored.capacity
        page.bp = restored.bp
        page.entries = restored.entries


#: Table 1 row order, used by the Table 1 reproduction matrix.
TABLE1_RECORD_TYPES: tuple[type[LogRecord], ...] = (
    ParentEntryUpdateRecord,
    SplitRecord,
    GarbageCollectionRecord,
    InternalEntryAddRecord,
    InternalEntryUpdateRecord,
    InternalEntryDeleteRecord,
    AddLeafEntryRecord,
    MarkLeafEntryRecord,
    GetPageRecord,
    FreePageRecord,
)
