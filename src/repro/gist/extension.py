"""The GiST extension-method interface ([HNP95], summarized in section 2).

An access method is defined by a handful of extension methods; the tree
template supplies everything else — traversal, splits, BP propagation,
and (in this library, per the paper) concurrency, isolation and recovery.
The paper's point is precisely that the extension writer supplies *only*
these methods ("a few hundred lines of extension code") and never sees a
latch, lock, predicate attachment or log record.

The four classic methods are ``consistent``, ``union``, ``penalty`` and
``pickSplit``.  Two small additions the algorithms need:

* ``same(a, b)`` — predicate equality, used by ``updateBP`` to detect
  that an ancestor's BP needs no further expansion and by the predicate
  percolation test of Figure 4;
* ``eq_query(key)`` — the "= key" predicate that unique-index insertion
  leaves on visited nodes (section 8) and that key deletion searches by
  (section 7).

Section 2 ends by noting that a B-tree keeps node entries sorted for
binary search.  An extension may declare such an order: the order key
of its stored keys and predicates, registered per type with
:func:`repro.storage.page.register_order_key`, and ``query_bounds``,
the lowest and highest order key a query can match.  Pages of its
trees then keep their entries sorted, and a node visit tests only the
entries :meth:`~repro.storage.page.Page.candidates` leaves — on an
internal node those whose lower end is at most the query's upper
bound, on a leaf of point keys those inside both bounds.  The
contract clause: every entry consistent with a query has its order key
at most the query's upper bound and, for a point key, at least its
lower bound.  The same order sorts a batch for the batched operations
(:meth:`GiSTExtension.organize`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.storage.page import order_of


class GiSTExtension(ABC):
    """Extension methods specializing the GiST to one access method."""

    #: short name used in diagnostics and the catalog
    name: str = "gist"

    # ------------------------------------------------------------------
    # required methods
    # ------------------------------------------------------------------
    @abstractmethod
    def consistent(self, pred: object, query: object) -> bool:
        """May a key satisfying ``pred`` also satisfy ``query``?

        Both arguments may be stored predicates (BPs or keys) or query
        predicates; the test is an intersection test and must never
        return a false negative.  This single method drives search
        navigation, predicate-lock conflict checking, attachment
        replication and percolation.
        """

    @abstractmethod
    def union(self, preds: Sequence[object]) -> object:
        """The tightest predicate this extension can express that is
        implied by every key satisfying any of ``preds``."""

    @abstractmethod
    def penalty(self, bp: object, key: object) -> float:
        """Domain-specific cost of inserting ``key`` under a subtree
        bounded by ``bp`` (typically: how much ``bp`` must grow).

        Never negative, and ``0`` whenever ``covers(bp, key)`` — no
        growth is the cheapest a subtree can be.  ``locateLeaf`` relies
        on it: it descends into the first zero-penalty entry without
        evaluating the node's remaining entries, which is the entry
        ``min`` over all of them would have returned.
        """

    @abstractmethod
    def pick_split(self, preds: Sequence[object]) -> tuple[list[int], list[int]]:
        """Partition entry indices into (stay, move-right) for a split.

        Both halves must be non-empty and cover all indices exactly once.
        """

    @abstractmethod
    def same(self, a: object, b: object) -> bool:
        """Predicate equality (used to detect 'BP needs no expansion')."""

    @abstractmethod
    def eq_query(self, key: object) -> object:
        """A predicate satisfied by exactly ``key``."""

    # ------------------------------------------------------------------
    # optional methods
    # ------------------------------------------------------------------
    def normalize_key(self, key: object) -> object:
        """Canonical, *hashable* form of a key, applied once on insert
        and delete.

        The cursor's rescan deduplication and garbage collection key on
        ``(key, rid)`` pairs, so stored keys must be hashable; an
        extension whose natural key type is mutable (e.g. the RD-tree's
        sets) converts it here.  Identity by default.
        """
        return key

    #: ``query_bounds(query) -> (lo, hi)``, the lowest and highest order
    #: key an entry consistent with ``query`` can have (or ``None`` for
    #: a query it cannot bound), declared by an extension whose key and
    #: predicate types register an order (see the module docstring).
    #: ``None`` here declares no order: node visits test every entry.
    query_bounds: Callable[[object], tuple | None] | None = None

    def multi_eq_query(self, keys: Sequence[object]) -> object | None:
        """A predicate satisfied by exactly the listed keys, or ``None``.

        Batched point operations (``multi_get`` / ``multi_delete``) use
        it to answer a whole sorted batch with a single descent: the
        returned object must work anywhere a query does (``consistent``
        against both stored keys and bounding predicates).  The
        conservative default returns ``None`` — batch ops then degrade
        to one point operation per key, which is always correct.
        """
        return None

    # ------------------------------------------------------------------
    # derived helpers used by the tree
    # ------------------------------------------------------------------
    def covers(self, bp: object, key: object) -> bool:
        """True if ``bp`` already bounds ``key`` (no expansion needed)."""
        if bp is None:
            return True
        return self.same(self.union([bp, key]), bp)

    def organize(self, preds: Sequence[object]) -> list[int] | None:
        """Batch order: the indices of ``preds`` in ascending order key
        (stable), or ``None`` when the extension declares no order.

        The batched operations and ``bulk_load`` sort a batch with it so
        that neighbouring keys share a descent.  Derived from the
        declared order, not a hook of its own; correctness never depends
        on batch order."""
        if self.query_bounds is None:
            return None
        return order_of(preds)
