"""The extension contract, proven with a from-scratch access method.

Mirrors examples/custom_access_method.py as a test: a brand-new key
domain (1-D integer ranges) implemented against the GiSTExtension ABC
gets search/insert/delete, splits, repeatable read and crash recovery
without touching any of it — the paper's extensibility thesis (§12) as
an executable assertion.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from hypothesis import given
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import TransactionAbort
from repro.ext.btree import BTreeExtension
from repro.ext.rdtree import RDTreeExtension
from repro.ext.rtree import Rect, RTreeExtension
from repro.gist.checker import check_tree
from repro.gist.extension import GiSTExtension


@dataclass(frozen=True)
class Span:
    lo: int
    hi: int

    def overlaps(self, other: "Span") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)


class SpanExtension(GiSTExtension):
    """Minimal custom access method: integer spans, overlap queries."""

    name = "span"

    def consistent(self, pred, query) -> bool:
        return pred.overlaps(query)

    def union(self, preds: Sequence) -> Span:
        return Span(min(p.lo for p in preds), max(p.hi for p in preds))

    def penalty(self, bp, key) -> float:
        grown = self.union([bp, key])
        return float((grown.hi - grown.lo) - (bp.hi - bp.lo))

    def pick_split(self, preds):
        order = sorted(range(len(preds)), key=lambda i: preds[i].lo)
        mid = len(order) // 2
        return order[:mid], order[mid:]

    def same(self, a, b) -> bool:
        return a == b

    def eq_query(self, key) -> Span:
        return key


def build():
    db = Database(page_capacity=4, lock_timeout=10.0)
    tree = db.create_tree("spans", SpanExtension())
    return db, tree


class TestCustomExtensionGetsEverything:
    def test_basic_operations(self):
        db, tree = build()
        txn = db.begin()
        for i in range(50):
            tree.insert(txn, Span(i * 10, i * 10 + 15), f"s{i}")
        db.commit(txn)
        txn = db.begin()
        hits = tree.search(txn, Span(100, 120))
        db.commit(txn)
        expected = {
            f"s{i}"
            for i in range(50)
            if Span(i * 10, i * 10 + 15).overlaps(Span(100, 120))
        }
        assert {r for _, r in hits} == expected
        assert check_tree(tree).ok

    def test_splits_happen_through_template_code(self):
        db, tree = build()
        txn = db.begin()
        for i in range(80):
            tree.insert(txn, Span(i, i + 2), f"s{i}")
        db.commit(txn)
        assert tree.stats.splits > 5
        assert tree.height() >= 3

    def test_repeatable_read_for_free(self):
        db, tree = build()
        setup = db.begin()
        for i in range(20):
            tree.insert(setup, Span(i * 10, i * 10 + 5), f"s{i}")
        db.commit(setup)
        reader = db.begin()
        first = tree.search(reader, Span(0, 100))
        done = threading.Event()

        def writer():
            txn = db.begin()
            try:
                tree.insert(txn, Span(50, 55), "phantom")
                db.commit(txn)
            except TransactionAbort:
                try:
                    db.rollback(txn)
                except Exception:
                    pass
            done.set()

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        t.join(0.3)
        assert not done.is_set()  # blocked by the reader's predicate
        second = tree.search(reader, Span(0, 100))
        assert first == second
        db.commit(reader)
        assert done.wait(10.0)

    def test_crash_recovery_for_free(self):
        db, tree = build()
        txn = db.begin()
        for i in range(30):
            tree.insert(txn, Span(i, i + 1), f"s{i}")
        db.commit(txn)
        loser = db.begin()
        tree.insert(loser, Span(999, 1000), "lost")
        db.log.flush()
        db.crash()
        db2 = db.restart({"spans": SpanExtension()})
        tree2 = db2.tree("spans")
        txn = db2.begin()
        found = {r for _, r in tree2.search(txn, Span(0, 10_000))}
        db2.commit(txn)
        assert found == {f"s{i}" for i in range(30)}
        assert check_tree(tree2).ok

    def test_vacuum_for_free(self):
        from repro.gist.maintenance import vacuum

        db, tree = build()
        txn = db.begin()
        for i in range(60):
            tree.insert(txn, Span(i, i + 1), f"s{i}")
        db.commit(txn)
        txn = db.begin()
        for i in range(60):
            tree.delete(txn, Span(i, i + 1), f"s{i}")
        db.commit(txn)
        txn = db.begin()
        report = vacuum(tree, txn)
        db.commit(txn)
        assert report.entries_collected == 60
        assert report.nodes_deleted > 0


_coords = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def _rects(draw):
    x1, x2, y1, y2 = (draw(_coords) for _ in range(4))
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


_key_sets = st.frozensets(st.integers(min_value=0, max_value=12), min_size=1)

SHIPPED = (
    (BTreeExtension(), _coords),
    (RTreeExtension(), _rects()),
    (RDTreeExtension(), _key_sets),
)


class TestPenaltyContract:
    """``penalty`` is never negative and is zero under a covering BP —
    what lets ``locateLeaf`` stop at the first zero-penalty entry and
    still pick the entry ``min`` would."""

    @given(st.data())
    def test_non_negative_and_zero_when_covered(self, data):
        ext, keys = data.draw(st.sampled_from(SHIPPED))
        members = data.draw(st.lists(keys, min_size=1, max_size=6))
        bp = ext.union(members)
        probe = data.draw(keys)
        assert ext.penalty(bp, probe) >= 0
        if ext.covers(bp, probe):
            assert ext.penalty(bp, probe) == 0
        for member in members:
            assert ext.covers(bp, member)
            assert ext.penalty(bp, member) == 0
