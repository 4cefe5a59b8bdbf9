"""Pure predicate locking (section 4.2) — the baseline the hybrid beats.

Under pure predicate locking every operation registers its predicate in
a **tree-global table** before touching the index, after checking the
entire table for conflicts.  The two drawbacks the paper names fall out
directly:

* conflict checks scan the whole global list (no way to index arbitrary
  predicates), so an insert pays one ``consistent()`` call per live scan
  predicate in the *whole tree*, not per predicate attached to its
  target leaf;
* the full search range is locked up-front, before the first data record
  is retrieved.

The implementation wraps any object with ``insert/search/delete`` (the
baseline trees) and enforces repeatable read purely through the global
table; the benchmark reads ``stats.comparisons`` to reproduce the
hybrid-vs-pure cost curve (experiment C2).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import LockTimeoutError


@dataclass
class GlobalPredicate:
    """One entry in the global predicate table."""

    owner: int
    pred: object
    kind: str  # "search" | "insert" | "delete"
    seqno: int = 0


class GlobalPredicateStats:
    """Counters for the pure-predicate-locking cost experiment (C2)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.checks = 0
        self.comparisons = 0
        self.blocks = 0

    def note(self, comparisons: int, blocked: bool) -> None:
        """Record one conflict check."""
        with self._lock:
            self.checks += 1
            self.comparisons += comparisons
            if blocked:
                self.blocks += 1

    def snapshot(self) -> dict[str, int]:
        """Thread-safe snapshot of the counters."""
        with self._lock:
            return {
                "checks": self.checks,
                "comparisons": self.comparisons,
                "blocks": self.blocks,
            }


#: which predicate kinds conflict with which (readers conflict with
#: writers and vice versa; readers never conflict with readers)
_CONFLICTS = {
    "search": ("insert", "delete"),
    "insert": ("search",),
    "delete": ("search",),
}


class GlobalPredicateTable:
    """The tree-global predicate list of section 4.2."""

    def __init__(
        self,
        consistent: Callable[[object, object], bool],
        timeout: float = 30.0,
    ) -> None:
        self.consistent = consistent
        self.timeout = timeout
        self.stats = GlobalPredicateStats()
        self._cond = threading.Condition()
        self._table: list[GlobalPredicate] = []
        self._seq = itertools.count(1)

    def register(
        self, owner: int, pred: object, kind: str
    ) -> GlobalPredicate:
        """Check the whole table for conflicts, block until clear, then
        register (the §4.2 protocol: set your own predicate only after
        verifying no conflicting predicates exist)."""
        deadline = self.timeout
        with self._cond:
            while True:
                comparisons, conflict = self._scan_locked(owner, pred, kind)
                self.stats.note(comparisons, conflict is not None)
                if conflict is None:
                    entry = GlobalPredicate(
                        owner, pred, kind, next(self._seq)
                    )
                    self._table.append(entry)
                    return entry
                if deadline <= 0:
                    raise LockTimeoutError(
                        f"pure predicate lock wait timeout for {owner}"
                    )
                self._cond.wait(0.05)
                deadline -= 0.05

    def _scan_locked(
        self, owner: int, pred: object, kind: str
    ) -> tuple[int, GlobalPredicate | None]:
        conflicting_kinds = _CONFLICTS[kind]
        comparisons = 0
        for entry in self._table:
            if entry.owner == owner or entry.kind not in conflicting_kinds:
                continue
            comparisons += 1
            if self.consistent(entry.pred, pred):
                return comparisons, entry
        return comparisons, None

    def release_owner(self, owner: int) -> None:
        """Drop every predicate the owner registered; wake waiters."""
        with self._cond:
            self._table = [e for e in self._table if e.owner != owner]
            self._cond.notify_all()

    def size(self) -> int:
        """Number of predicates currently in the global table."""
        with self._cond:
            return len(self._table)


class PurePredicateIndex:
    """Repeatable read via pure predicate locking over a baseline tree.

    ``owner`` plays the role of a transaction id; all its predicates are
    dropped at :meth:`end`.
    """

    def __init__(self, tree, timeout: float = 30.0) -> None:
        self.tree = tree
        self.table = GlobalPredicateTable(
            tree.ext.consistent, timeout=timeout
        )

    def search(self, owner: int, query: object) -> list[tuple]:
        """All live ``(key, rid)`` pairs matching the query (protocol-specific traversal)."""
        self.table.register(owner, query, "search")
        return self.tree.search(query)

    def insert(self, owner: int, key: object, rid: object) -> None:
        """Insert a ``(key, rid)`` pair under this protocol's latching discipline."""
        self.table.register(owner, self.tree.ext.eq_query(key), "insert")
        self.tree.insert(key, rid)

    def end(self, owner: int) -> None:
        """Transaction end: release every predicate the owner holds."""
        self.table.release_owner(owner)
