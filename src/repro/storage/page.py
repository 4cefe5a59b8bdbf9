"""The page model shared by the GiST and its baselines.

Every tree node lives in a page.  A page carries the concurrency-protocol
fields the paper adds to each node (section 3): the **node sequence number
(NSN)** and the **rightlink**, plus the **page LSN** required by the WAL
protocol (section 9/10.1).

Entries come in two shapes:

* :class:`LeafEntry` — a ``(key, RID)`` pair plus the *logical deletion*
  marker of section 7 (``deleted`` flag and the deleting transaction id,
  needed by garbage collection to test whether the deleter committed).
* :class:`InternalEntry` — a ``(bounding predicate, child page id)`` pair.
  Note there is deliberately **no per-entry sequence number**: the paper's
  NSN design improves on the R-link tree precisely by keeping internal
  entries two fields wide (section 3).

Capacity is counted in entry slots rather than bytes; ``capacity`` is the
page's fanout and is configurable per tree, which is what the paper's
analysis actually depends on (splits happen when a node overflows its
fanout).
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro.errors import PageOverflowError

#: Page id type alias (page ids are small ints handed out by the store).
PageId = int

#: Sentinel page id meaning "no page" (e.g. no rightlink).
NO_PAGE: PageId = -1

#: Types whose values never need copying.  Keys and predicates of these
#: types are shared between a page and its snapshots instead of being
#: ``copy.deepcopy``-ed on every flush/eviction — the dominant cost of a
#: page snapshot for scalar trees.  Extensions whose key/predicate type
#: is immutable (e.g. a frozen dataclass) opt in via
#: :func:`register_immutable_type`.
_IMMUTABLE_TYPES: set[type] = {
    int,
    float,
    str,
    bytes,
    bool,
    complex,
    type(None),
}


def register_immutable_type(tp: type) -> None:
    """Declare ``tp`` immutable so copies can share its instances.

    Only register types whose instances can never be mutated in place
    (scalars, frozen dataclasses of scalars); a shared mutable value
    would let an in-memory page edit leak into an already-taken disk
    snapshot.
    """
    _IMMUTABLE_TYPES.add(tp)


def _is_immutable(value: object) -> bool:
    tp = type(value)
    if tp in _IMMUTABLE_TYPES:
        return True
    if tp is tuple:
        return all(_is_immutable(item) for item in value)
    return False


def copy_value(value: object) -> object:
    """A safe independent copy: shared if immutable, deep otherwise.

    The one copy rule for keys and predicates, on pages here and in the
    redo/undo actions of :mod:`repro.wal.records`.
    """
    if _is_immutable(value):
        return value
    return copy.deepcopy(value)


class PageKind(Enum):
    """What a page currently holds."""

    LEAF = "leaf"
    INTERNAL = "internal"
    FREE = "free"


@dataclass
class LeafEntry:
    """A ``(key, RID)`` pair stored on a leaf.

    ``deleted`` / ``delete_xid`` implement logical deletion (section 7):
    a delete only marks the entry; it stays physically present so that
    repeatable-read scans block on the deleter's RID lock, and is removed
    later by garbage collection once the deleter has committed.
    """

    key: object
    rid: object
    deleted: bool = False
    delete_xid: int | None = None

    def copy(self) -> "LeafEntry":
        """An independent copy."""
        return LeafEntry(
            copy_value(self.key), self.rid, self.deleted, self.delete_xid
        )

    def as_tuple(self) -> tuple[object, object]:
        """The entry as a plain ``(key, rid)`` tuple."""
        return (self.key, self.rid)


@dataclass
class InternalEntry:
    """A ``(bounding predicate, child pointer)`` pair on an internal node."""

    pred: object
    child: PageId

    def copy(self) -> "InternalEntry":
        """An independent copy."""
        return InternalEntry(copy_value(self.pred), self.child)


@dataclass
class Page:
    """An in-memory page image.

    Attributes
    ----------
    pid:
        Page id.
    kind:
        Leaf, internal, or free.
    level:
        0 for leaves, parents are 1, and so on (the root has the highest
        level).  Levels make tree-invariant checking cheap and unambiguous.
    nsn:
        Node sequence number (section 3).  Compared against the global
        counter value a traversal memorised when it read the parent entry;
        ``nsn`` greater than the memorised value means "this node has
        split since you read my parent entry — follow my rightlink".
    rightlink:
        Page id of the right sibling split off this node, or ``NO_PAGE``.
    page_lsn:
        LSN of the last log record applied to this page (WAL protocol).
    capacity:
        Maximum number of entries before the page must split.
    bp:
        The node's own copy of its bounding predicate.  The authoritative
        copy lives in the parent entry, but Table 1's Parent-Entry-Update
        record updates "the BP in the child and the corresponding slot in
        the parent", so the child carries a copy too (it is what
        ``updateBP`` compares against).  ``None`` on the root means "the
        whole key space".
    entries:
        Leaf entries or internal entries depending on ``kind``.
    """

    pid: PageId
    kind: PageKind
    level: int = 0
    nsn: int = 0
    rightlink: PageId = NO_PAGE
    page_lsn: int = 0
    capacity: int = 64
    bp: object | None = None
    entries: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """True for leaf pages."""
        return self.kind is PageKind.LEAF

    @property
    def is_internal(self) -> bool:
        """True for internal pages."""
        return self.kind is PageKind.INTERNAL

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        """True when no entry slot is free."""
        return len(self.entries) >= self.capacity

    @property
    def free_slots(self) -> int:
        """Number of free entry slots."""
        return self.capacity - len(self.entries)

    def live_entries(self) -> Iterator[LeafEntry]:
        """Leaf entries not marked logically deleted."""
        for entry in self.entries:
            if not entry.deleted:
                yield entry

    # ------------------------------------------------------------------
    # mutation helpers (callers hold the X latch and have logged)
    # ------------------------------------------------------------------
    def add_entry(self, entry: LeafEntry | InternalEntry) -> None:
        """Append an entry (raises :class:`PageOverflowError` when full)."""
        if len(self.entries) >= self.capacity:
            raise PageOverflowError(
                f"page {self.pid} full ({self.capacity} entries)"
            )
        self.entries.append(entry)

    def find_leaf_entry(self, key: object, rid: object) -> LeafEntry | None:
        """Locate the leaf entry with exactly this ``(key, rid)`` pair."""
        for entry in self.entries:
            if entry.rid == rid and entry.key == key:
                return entry
        return None

    def find_child_entry(self, child: PageId) -> InternalEntry | None:
        """Locate the internal entry pointing at ``child``."""
        for entry in self.entries:
            if entry.child == child:
                return entry
        return None

    def remove_child_entry(self, child: PageId) -> InternalEntry | None:
        """Remove and return the internal entry pointing at ``child``."""
        for i, entry in enumerate(self.entries):
            if entry.child == child:
                return self.entries.pop(i)
        return None

    def remove_leaf_entries(self, rids: set) -> list[LeafEntry]:
        """Physically remove the leaf entries whose RID is in ``rids``."""
        removed = [e for e in self.entries if e.rid in rids]
        self.entries = [e for e in self.entries if e.rid not in rids]
        return removed

    def remove_leaf_pairs(self, pairs: set) -> list[LeafEntry]:
        """Physically remove entries whose ``(key, rid)`` is in ``pairs``.

        Garbage collection keys on the full pair: a record re-inserted
        under a new key may coexist with its old tombstone on one page,
        and only the tombstone must go.
        """
        removed = [
            e for e in self.entries if (e.key, e.rid) in pairs
        ]
        self.entries = [
            e for e in self.entries if (e.key, e.rid) not in pairs
        ]
        return removed

    # ------------------------------------------------------------------
    # snapshots (used by the "disk")
    # ------------------------------------------------------------------
    def snapshot(self) -> "Page":
        """A deep, independent copy of this page image."""
        clone = Page(
            pid=self.pid,
            kind=self.kind,
            level=self.level,
            nsn=self.nsn,
            rightlink=self.rightlink,
            page_lsn=self.page_lsn,
            capacity=self.capacity,
            bp=copy_value(self.bp),
        )
        clone.entries = [entry.copy() for entry in self.entries]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page(pid={self.pid}, {self.kind.value}, level={self.level}, "
            f"nsn={self.nsn}, right={self.rightlink}, lsn={self.page_lsn}, "
            f"n={len(self.entries)}/{self.capacity})"
        )


# ---------------------------------------------------------------------------
# checksums (torn-write detection)
# ---------------------------------------------------------------------------


def page_fingerprint(page: Page) -> bytes:
    """A canonical byte encoding of a page image's full content.

    Covers every header field *and* every entry field, so any
    half-applied write (stale entries under a new header, or vice
    versa) changes the fingerprint.  Keys, RIDs and predicates are
    folded in via ``repr`` — stable for the scalar and dataclass types
    extensions use, and good enough for a simulation checksum.
    """
    parts = [
        f"pid={page.pid}",
        f"kind={page.kind.value}",
        f"level={page.level}",
        f"nsn={page.nsn}",
        f"rightlink={page.rightlink}",
        f"page_lsn={page.page_lsn}",
        f"capacity={page.capacity}",
        f"bp={page.bp!r}",
    ]
    for entry in page.entries:
        if isinstance(entry, LeafEntry):
            parts.append(
                f"L:{entry.key!r}:{entry.rid!r}:{entry.deleted}"
                f":{entry.delete_xid}"
            )
        else:
            parts.append(f"I:{entry.pred!r}:{entry.child}")
    return "|".join(parts).encode("utf-8", "backslashreplace")


def page_checksum(page: Page) -> int:
    """CRC32 of the page fingerprint (the persisted page checksum)."""
    return zlib.crc32(page_fingerprint(page))
