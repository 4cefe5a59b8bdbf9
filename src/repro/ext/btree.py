"""B-tree as a GiST extension.

The canonical first example from [HNP95]: keys are values from a totally
ordered domain, bounding predicates are closed intervals, and the node
layout keeps entries sorted so the ``organize`` hook enables the usual
binary-search behaviour.  This is also the specialization the paper's
Figures 1 and 2 are drawn with, and the one "emulating B-trees in
DB2/Common Server" mentioned in the abstract.

Queries may be raw key values (point queries) or :class:`Interval`
objects (range queries).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.gist.extension import GiSTExtension
from repro.storage.page import register_immutable_type


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
    """Ordered-domain extension: interval BPs, sorted node layout."""

    name = "btree"

    def consistent(self, pred: object, query: object) -> bool:
        """Intersection test between predicates (contract: :meth:`GiSTExtension.consistent`)."""
        if isinstance(query, MultiPoint):
            return query.intersects(as_interval(pred))
        if isinstance(pred, MultiPoint):
            return pred.intersects(as_interval(query))
        return as_interval(pred).intersects(as_interval(query))

    def union(self, preds: Sequence[object]) -> object:
        """Tightest covering predicate of the inputs (contract: :meth:`GiSTExtension.union`)."""
        if not preds:
            raise ValueError("union of no predicates")
        result = as_interval(preds[0])
        for pred in preds[1:]:
            result = result.union_with(as_interval(pred))
        return result

    def penalty(self, bp: object, key: object) -> float:
        """How far the interval must stretch to admit ``key``.

        Numeric domains get the exact stretch; non-numeric ordered
        domains fall back to a containment indicator, which still steers
        the descent into covering subtrees first.
        """
        interval = as_interval(bp)
        point = as_interval(key)
        if interval.contains(point.lo) and interval.contains(point.hi):
            return 0.0
        try:
            below = max(0.0, float(interval.lo) - float(point.lo))
            above = max(0.0, float(point.hi) - float(interval.hi))
            return below + above
        except (TypeError, ValueError):
            return 1.0

    def pick_split(
        self, preds: Sequence[object]
    ) -> tuple[list[int], list[int]]:
        """Partition entry indices for a split (contract: :meth:`GiSTExtension.pick_split`)."""
        order = sorted(
            range(len(preds)), key=lambda i: as_interval(preds[i]).lo
        )
        mid = len(order) // 2
        return order[:mid], order[mid:]

    def same(self, a: object, b: object) -> bool:
        """Predicate equality (contract: :meth:`GiSTExtension.same`)."""
        return as_interval(a) == as_interval(b)

    def eq_query(self, key: object) -> object:
        """Exact-match predicate for a key (contract: :meth:`GiSTExtension.eq_query`)."""
        return as_interval(key)

    def multi_eq_query(self, keys: Sequence[object]) -> object:
        """Multi-point predicate for a key batch (contract:
        :meth:`GiSTExtension.multi_eq_query`)."""
        return MultiPoint.of(keys)

    def organize(self, preds: Sequence[object]) -> list[int]:
        """Sorted intra-node layout (contract: :meth:`GiSTExtension.organize`)."""
        return sorted(
            range(len(preds)), key=lambda i: as_interval(preds[i]).lo
        )


# Interval is a frozen dataclass over ordered scalars: page snapshots may
# share instances instead of deep-copying them on every flush/eviction.
register_immutable_type(Interval)
