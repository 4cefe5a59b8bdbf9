"""B-tree as a GiST extension.

The canonical first example from [HNP95]: keys are values from a totally
ordered domain and bounding predicates are closed intervals.  The
extension declares that order (:mod:`repro.gist.extension`): a key is
its own order key and an interval's is its ``lo``, so every node keeps
its entries sorted, as section 2 says a B-tree does, and a node visit
bisects to the entries a query can match.  The same order sorts a
batch, so that the batched operations and ``bulk_load`` meet
neighbouring keys together (:mod:`repro.gist.batch`).  This is also the
specialization the paper's Figures 1 and 2 are drawn with, and the one
"emulating B-trees in DB2/Common Server" mentioned in the abstract.

Keys of type ``int``, ``float``, ``str`` and ``bytes`` are registered
as ordered.  Leaves of keys of another type are scanned entry by entry
unless the type is registered with
:func:`~repro.storage.page.register_order_key` before its first insert.

Queries may be raw key values (point queries) or :class:`Interval`
objects (range queries).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.gist.extension import GiSTExtension
from repro.storage.page import (
    order_of,
    register_immutable_type,
    register_order_key,
)


@dataclass(frozen=True)
class Interval:
    """A closed/open interval over an ordered domain.

    ``lo``/``hi`` inclusive by default; ``lo_incl=False`` makes the lower
    bound open (and symmetrically for ``hi_incl``).
    """

    lo: object
    hi: object
    lo_incl: bool = True
    hi_incl: bool = True

    def __post_init__(self) -> None:
        if self.lo > self.hi:  # type: ignore[operator]
            raise ValueError(f"empty interval [{self.lo!r}, {self.hi!r}]")
        if self.lo == self.hi and not (self.lo_incl and self.hi_incl):
            # a point interval with an open bound denotes the empty set,
            # which would break the intersection algebra (symmetry)
            raise ValueError(
                f"empty interval at point {self.lo!r} with open bound"
            )

    def contains(self, value: object) -> bool:
        """Containment test."""
        above = value > self.lo or (self.lo_incl and value == self.lo)
        below = value < self.hi or (self.hi_incl and value == self.hi)
        return above and below

    def intersects(self, other: "Interval") -> bool:
        """Intersection test."""
        if self.hi < other.lo or other.hi < self.lo:
            return False
        if self.hi == other.lo:
            return self.hi_incl and other.lo_incl
        if other.hi == self.lo:
            return other.hi_incl and self.lo_incl
        return True

    def union_with(self, other: "Interval") -> "Interval":
        """The bounding union of self and other."""
        if self.lo < other.lo:
            lo, lo_incl = self.lo, self.lo_incl
        elif other.lo < self.lo:
            lo, lo_incl = other.lo, other.lo_incl
        else:
            lo, lo_incl = self.lo, self.lo_incl or other.lo_incl
        if self.hi > other.hi:
            hi, hi_incl = self.hi, self.hi_incl
        elif other.hi > self.hi:
            hi, hi_incl = other.hi, other.hi_incl
        else:
            hi, hi_incl = self.hi, self.hi_incl or other.hi_incl
        return Interval(lo, hi, lo_incl, hi_incl)

    @staticmethod
    def point(value: object) -> "Interval":
        """A degenerate (single-point) instance."""
        return Interval(value, value)


@dataclass(frozen=True)
class MultiPoint:
    """An ``IN (k1, k2, …)`` predicate: the union of point queries.

    Produced by :meth:`BTreeExtension.multi_eq_query` so batched point
    operations (``multi_get`` / ``multi_delete``) can share one descent:
    ``consistent`` against an interval holds when *any* member falls
    inside it, so a single cursor visits exactly the union of leaves the
    individual point queries would have visited.  ``keys`` is sorted and
    duplicate-free (build via :meth:`of`).
    """

    keys: tuple

    def contains(self, value: object) -> bool:
        """Membership test (also the history oracle's ``covers``)."""
        i = bisect_left(self.keys, value)
        return i < len(self.keys) and self.keys[i] == value

    def intersects(self, interval: Interval) -> bool:
        """Whether any member key lies inside ``interval``."""
        keys = self.keys
        i = bisect_left(keys, interval.lo)
        while i < len(keys):
            key = keys[i]
            if key > interval.hi:
                return False
            if interval.contains(key):
                return True
            i += 1  # key == an open bound: try the next member
        return False

    @staticmethod
    def of(keys: Sequence[object]) -> "MultiPoint":
        """Canonical instance: sorted, deduplicated."""
        return MultiPoint(tuple(sorted(set(keys))))


def as_interval(pred: object) -> Interval:
    """Normalize a key value or interval to an :class:`Interval`."""
    if isinstance(pred, Interval):
        return pred
    return Interval.point(pred)


class BTreeExtension(GiSTExtension):
    """Ordered-domain extension: interval BPs, key-sorted nodes.

    The template calls these methods once per entry of every node it
    visits, so each compares raw keys, :class:`Interval` and
    :class:`MultiPoint` arguments directly by type; none builds a
    throw-away point ``Interval`` to compare a raw key against a bound.
    """

    name = "btree"

    def consistent(self, pred: object, query: object) -> bool:
        """Intersection test between predicates (contract: :meth:`GiSTExtension.consistent`)."""
        if isinstance(query, Interval):
            if isinstance(pred, (Interval, MultiPoint)):
                return pred.intersects(query)
            return query.contains(pred)
        if isinstance(query, MultiPoint):
            if isinstance(pred, Interval):
                return query.intersects(pred)
            if isinstance(pred, MultiPoint):
                return any(map(query.contains, pred.keys))
            return query.contains(pred)
        if isinstance(pred, (Interval, MultiPoint)):
            return pred.contains(query)
        return pred == query

    def union(self, preds: Sequence[object]) -> object:
        """Tightest covering predicate of the inputs (contract: :meth:`GiSTExtension.union`)."""
        if not preds:
            raise ValueError("union of no predicates")
        members = iter(preds)
        lo, hi, lo_incl, hi_incl = _bounds(next(members))
        for pred in members:
            p_lo, p_hi, p_lo_incl, p_hi_incl = _bounds(pred)
            # same tie-breaking as Interval.union_with
            if not lo < p_lo:
                if p_lo < lo:
                    lo, lo_incl = p_lo, p_lo_incl
                else:
                    lo_incl = lo_incl or p_lo_incl
            if not hi > p_hi:
                if p_hi > hi:
                    hi, hi_incl = p_hi, p_hi_incl
                else:
                    hi_incl = hi_incl or p_hi_incl
        return Interval(lo, hi, lo_incl, hi_incl)

    def penalty(self, bp: object, key: object) -> float:
        """How far the interval must stretch to admit ``key``.

        Numeric domains get the exact stretch; non-numeric ordered
        domains fall back to a containment indicator, which still steers
        the descent into covering subtrees first.  Never negative, and
        ``0.0`` whenever ``bp`` covers ``key`` (contract:
        :meth:`GiSTExtension.penalty`).
        """
        if isinstance(bp, Interval):
            if isinstance(key, Interval):
                key_lo, key_hi = key.lo, key.hi
                covered = bp.contains(key_lo) and bp.contains(key_hi)
            else:
                key_lo = key_hi = key
                covered = bp.contains(key)
            if covered:
                return 0.0
            bp_lo, bp_hi = bp.lo, bp.hi
        else:
            key_lo, key_hi, _, _ = _bounds(key)
            if key_lo == bp and key_hi == bp:
                return 0.0
            bp_lo = bp_hi = bp
        try:
            below = max(0.0, float(bp_lo) - float(key_lo))
            above = max(0.0, float(key_hi) - float(bp_hi))
            return below + above
        except (TypeError, ValueError):
            return 1.0

    def pick_split(
        self, preds: Sequence[object]
    ) -> tuple[list[int], list[int]]:
        """Partition entry indices for a split (contract: :meth:`GiSTExtension.pick_split`)."""
        order = order_of(preds)
        mid = len(order) // 2
        return order[:mid], order[mid:]

    def same(self, a: object, b: object) -> bool:
        """Predicate equality (contract: :meth:`GiSTExtension.same`)."""
        if isinstance(a, Interval):
            if isinstance(b, Interval):
                return a == b
            return a.lo == b and a.hi == b
        if isinstance(b, Interval):
            return b.lo == a and b.hi == a
        return a == b

    def covers(self, bp: object, key: object) -> bool:
        """True if ``bp`` already bounds ``key`` (contract: :meth:`GiSTExtension.covers`)."""
        if isinstance(bp, Interval) and not isinstance(
            key, (Interval, MultiPoint)
        ):
            return bp.contains(key)
        return super().covers(bp, key)

    def eq_query(self, key: object) -> object:
        """Exact-match predicate for a key (contract: :meth:`GiSTExtension.eq_query`)."""
        return as_interval(key)

    def multi_eq_query(self, keys: Sequence[object]) -> object:
        """Multi-point predicate for a key batch (contract:
        :meth:`GiSTExtension.multi_eq_query`)."""
        return MultiPoint.of(keys)

    def query_bounds(self, query: object) -> tuple | None:
        """Lowest and highest key ``query`` can match (contract:
        :attr:`GiSTExtension.query_bounds`)."""
        if isinstance(query, Interval):
            return query.lo, query.hi
        if isinstance(query, MultiPoint):
            keys = query.keys
            return (keys[0], keys[-1]) if keys else None
        return query, query


def _bounds(pred: object) -> tuple:
    """``(lo, hi, lo_incl, hi_incl)`` of an interval or of a raw key."""
    if isinstance(pred, Interval):
        return pred.lo, pred.hi, pred.lo_incl, pred.hi_incl
    return pred, pred, True, True


# Interval is a frozen dataclass over ordered scalars: page snapshots may
# share instances instead of deep-copying them on every flush/eviction.
register_immutable_type(Interval)
# The declared order: scalar keys are points, an interval sorts by lo.
for _tp in (int, float, str, bytes):
    register_order_key(_tp)
register_order_key(Interval, "lo")
