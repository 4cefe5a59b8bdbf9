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
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
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


#: Types whose values carry a declared total order, mapped to the
#: attribute holding a value's order key, or to ``None`` when the value
#: is its own order key (a point).  A page whose entries are of such a
#: type keeps them sorted by that key (:meth:`Page.add_entry`), which
#: lets a node visit bisect to the entries a query can match
#: (:meth:`Page.candidates`).  Registered per key type rather than per
#: tree, so that redo, which knows no extension, keeps the same order.
_ORDER_ATTRS: dict[type, str | None] = {}

#: ``(entry field, value type)`` -> ``(entry sort key, point-valued)``,
#: or ``None`` for a type with no declared order
_ENTRY_ORDERS: dict[tuple[str, type], tuple | None] = {}


def register_order_key(tp: type, attr: str | None = None) -> None:
    """Declare that values of ``tp`` are totally ordered.

    With ``attr`` a value's order key is ``value.<attr>`` (the lower
    end of an extended value, such as an interval's ``lo``); without it
    the value is a point and its own order key.  The order keys of
    the values stored in one tree must compare with each other.
    """
    _ORDER_ATTRS[tp] = attr
    _ENTRY_ORDERS.clear()


def order_key(value: object) -> object:
    """The order key of a value: ``value.<attr>`` for a type registered
    with an attribute, else the value itself."""
    attr = _ORDER_ATTRS.get(type(value))
    return value if attr is None else getattr(value, attr)


def order_of(values: list) -> list[int]:
    """Indices of ``values`` in ascending order key (stable)."""
    keys = [order_key(value) for value in values]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _entry_order(entry: "LeafEntry | InternalEntry") -> tuple | None:
    """``(sort key over entries, point-valued)`` of ``entry``'s type."""
    if type(entry) is LeafEntry:
        slot = ("key", type(entry.key))
    else:
        slot = ("pred", type(entry.pred))
    try:
        return _ENTRY_ORDERS[slot]
    except KeyError:
        pass
    name, tp = slot
    order = None
    if tp in _ORDER_ATTRS:
        attr = _ORDER_ATTRS[tp]
        order = (
            attrgetter(name if attr is None else f"{name}.{attr}"),
            attr is None,
        )
    _ENTRY_ORDERS[slot] = order
    return order


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
        """Add an entry at its place in the declared order, or append
        it when its type declares none (raises
        :class:`PageOverflowError` when full).

        Among entries with equal order keys the newest goes last, so a
        page rebuilt by replaying its adds in log order is the page
        they built.
        """
        if len(self.entries) >= self.capacity:
            raise PageOverflowError(
                f"page {self.pid} full ({self.capacity} entries)"
            )
        order = _entry_order(entry)
        if order is None:
            self.entries.append(entry)
        else:
            insort(self.entries, entry, key=order[0])

    def add_entries(self, entries: list) -> None:
        """Add a run of entries in one merge pass: the same page as
        :meth:`add_entry` on each in turn."""
        if len(self.entries) + len(entries) > self.capacity:
            raise PageOverflowError(
                f"page {self.pid} full ({self.capacity} entries)"
            )
        self.entries.extend(entries)
        self.sort_entries()

    def sort_entries(self) -> None:
        """Restore the declared order after entries were added in bulk.

        The sort is stable: entries with equal order keys keep their
        list order, which is where :meth:`add_entry` would have put
        them one by one.
        """
        entries = self.entries
        order = _entry_order(entries[0]) if entries else None
        if order is not None:
            entries.sort(key=order[0])

    def candidates(self, lo: object, hi: object) -> list:
        """The entries a query whose order keys lie in ``[lo, hi]`` can
        match, in a page of ordered entries; all entries otherwise.

        Point-valued entries (a B-tree's leaf keys) are cut at both
        ends.  Extended values (bounding intervals) are cut only above:
        an entry whose lower end exceeds ``hi`` cannot match, but the
        upper ends are not sorted, so nothing is cut below.  The caller
        still tests each candidate, which settles open bounds.
        """
        entries = self.entries
        order = _entry_order(entries[0]) if entries else None
        if order is None:
            return entries
        key, points = order
        end = bisect_right(entries, hi, key=key)
        if not points:
            return entries[:end]
        return entries[bisect_left(entries, lo, 0, end, key=key) : end]

    def find_leaf_entry(self, key: object, rid: object) -> LeafEntry | None:
        """Locate the leaf entry with exactly this ``(key, rid)`` pair."""
        entries = self.entries
        order = _entry_order(entries[0]) if entries else None
        if order is not None and type(key) in _ORDER_ATTRS:
            # only the entries whose order key equals the key's
            sort_key, at = order[0], order_key(key)
            start = bisect_left(entries, at, key=sort_key)
            entries = entries[start : bisect_right(entries, at, start, key=sort_key)]
        for entry in entries:
            if entry.rid == rid and entry.key == key:
                return entry
        return None

    def find_child_entry(self, child: PageId) -> InternalEntry | None:
        """Locate the internal entry pointing at ``child``."""
        for entry in self.entries:
            if entry.child == child:
                return entry
        return None

    def set_child_pred(self, child: PageId, pred: object) -> None:
        """Give the internal entry pointing at ``child`` a new predicate,
        moving it to its place if that changed its order key."""
        entries = self.entries
        for i, entry in enumerate(entries):
            if entry.child == child:
                break
        else:
            return
        entry.pred = pred
        order = _entry_order(entry)
        if order is None:
            return
        key = order[0]
        at = key(entry)
        if (i > 0 and at < key(entries[i - 1])) or (
            i + 1 < len(entries) and key(entries[i + 1]) < at
        ):
            del entries[i]
            insort(entries, entry, key=key)

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
