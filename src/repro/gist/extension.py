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

``organize`` is an optional ordering hook.  Section 2 ends by noting that
a B-tree keeps node entries sorted for binary search; this library does
not: node entries stay in insertion order, and ``organize`` orders a
*batch* of keys instead (:mod:`repro.gist.batch`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence


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

    def organize(self, preds: Sequence[object]) -> list[int] | None:
        """Optional batch order: a permutation of indices of ``preds``
        (e.g. key order for a B-tree), or ``None`` to keep the caller's
        order.  The batched operations and ``bulk_load`` sort a batch
        with it so that neighbouring keys share a descent; node entries
        are never sorted.  Purely an
        efficiency hook: correctness never depends on batch order."""
        return None

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
