"""Sorted nodes: an ordered tree's pages stay sorted, and bisection
finds exactly what testing every entry finds.

The B-tree declares an order (``query_bounds`` plus the order key
registered for its key and predicate types), so every page keeps its
entries sorted and a node visit tests only the entries
``Page.candidates`` leaves.  The oracle here is the linear one: every
leaf entry of the tree tested with ``consistent``, and the model of
committed pairs.  Trees are built by point inserts (disjoint sibling
BPs) and by ``multi_put`` (overlapping sibling BPs), with duplicate
keys and with tombstones.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import CrashError
from repro.ext.btree import BTreeExtension, Interval, MultiPoint
from repro.gist.checker import check_tree
from repro.storage.page import (
    InternalEntry,
    LeafEntry,
    Page,
    PageKind,
    order_key,
)
from repro.sync.latch import LatchMode


def _pages(tree):
    pool = tree.db.pool
    for pid in tree.all_pids():
        with pool.fixed(pid, LatchMode.S) as frame:
            yield frame.page.snapshot()


def linear_filter(tree, query) -> list:
    """Every live leaf entry ``consistent`` with ``query``, testing all."""
    consistent = tree.ext.consistent
    return sorted(
        (e.key, e.rid)
        for page in _pages(tree)
        if page.is_leaf
        for e in page.entries
        if not e.deleted and consistent(e.key, query)
    )


def internal_overlaps(tree) -> int:
    """Internal nodes whose sibling BPs overlap (``multi_put`` builds them)."""
    overlapping = 0
    for page in _pages(tree):
        if page.is_internal:
            preds = [e.pred for e in page.entries]
            if any(
                a.intersects(b)
                for i, a in enumerate(preds)
                for b in preds[i + 1 :]
            ):
                overlapping += 1
    return overlapping


def build(ops, *, capacity=4):
    """Apply ``ops`` in committed transactions; return the live model."""
    db = Database(page_capacity=capacity, lock_timeout=10.0)
    tree = db.create_tree("t", BTreeExtension())
    live: dict = {}
    serial = 0
    for op in ops:
        txn = db.begin()
        if op[0] == "insert":
            for key in op[1]:
                serial += 1
                tree.insert(txn, key, f"r{serial}")
                live[f"r{serial}"] = key
        elif op[0] == "multi_put":
            pairs = []
            for key in op[1]:
                serial += 1
                pairs.append((key, f"r{serial}"))
                live[f"r{serial}"] = key
            tree.multi_put(txn, pairs)
        elif op[0] == "delete" and live:
            victims = sorted(live)[:: op[1]]
            for rid in victims:
                tree.delete(txn, live.pop(rid), rid)
        db.commit(txn)
    return db, tree, live


keys = st.integers(0, 40)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(keys, min_size=1, max_size=8)),
        st.tuples(
            st.just("multi_put"), st.lists(keys, min_size=1, max_size=30)
        ),
        st.tuples(st.just("delete"), st.integers(2, 7)),
    ),
    min_size=1,
    max_size=8,
)
bound = st.integers(-1, 41)
queries = st.one_of(
    keys,
    st.tuples(bound, bound, st.booleans(), st.booleans()),
    st.lists(keys, min_size=1, max_size=6).map(MultiPoint.of),
)


def _as_query(drawn):
    if not isinstance(drawn, tuple):
        return drawn
    lo, hi, lo_incl, hi_incl = drawn
    lo, hi = min(lo, hi), max(lo, hi)
    if lo == hi:
        return Interval(lo, hi)  # an open point interval is empty
    return Interval(lo, hi, lo_incl, hi_incl)


def _model_filter(live, query) -> list:
    if isinstance(query, (Interval, MultiPoint)):
        hit = query.contains
    else:
        hit = query.__eq__
    return sorted((key, rid) for rid, key in live.items() if hit(key))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops, st.lists(queries, min_size=1, max_size=6))
def test_bisected_search_equals_linear_filter(ops, drawn):
    db, tree, live = build(ops)
    report = check_tree(tree)
    assert report.ok, report.errors
    # bounds equal to stored keys, and open upper bounds at a child's lo
    lows = sorted(
        {
            order_key(e.pred)
            for page in _pages(tree)
            if page.is_internal
            for e in page.entries
        }
    )
    extra = [Interval(lo - 1, lo, True, False) for lo in lows]
    extra += [Interval(lo, lo + 3, False, True) for lo in lows]
    txn = db.begin()
    for query in [_as_query(d) for d in drawn] + extra:
        found = sorted(tree.search(txn, query))
        assert found == linear_filter(tree, query) == _model_filter(
            live, query
        ), query
    db.commit(txn)


def test_multi_put_builds_overlapping_bps_that_search_still_answers():
    """The case that forbids stopping an internal walk at the first
    inconsistent entry: sibling BPs overlap, and every query is still
    answered exactly."""
    # a batch run stretches the leaf of its first key over the others,
    # so one wide BP comes before its narrow siblings in the parent
    db, tree, live = build(
        [("insert", list(range(80))), ("multi_put", [1, 40, 78])]
    )
    assert internal_overlaps(tree) > 0
    txn = db.begin()
    for lo in range(80):
        for query in (
            lo,
            Interval(lo, lo + 9),
            Interval(lo, lo + 9, False, False),
        ):
            found = sorted(tree.search(txn, query))
            assert found == _model_filter(live, query)
    db.commit(txn)


def test_open_upper_bound_at_a_childs_lower_end_keeps_the_rows_below():
    db, tree, live = build([("insert", list(range(40)))])
    root = next(p for p in _pages(tree) if p.pid == tree.root_pid)
    assert root.is_internal and len(root.entries) > 1
    lo = order_key(root.entries[1].pred)
    query = Interval(lo - 5, lo, True, False)
    txn = db.begin()
    found = sorted(tree.search(txn, query))
    db.commit(txn)
    assert found == _model_filter(live, query)
    assert len(found) == 5


def test_ordered_tree_descends_with_one_penalty_per_covering_level():
    """An insert whose key every level covers costs one ``penalty``
    call per internal level, not one per entry."""
    db, tree, _ = build([("insert", list(range(0, 400, 2)))], capacity=8)
    calls = []
    penalty = tree.ext.penalty

    def counting(bp, key):
        calls.append(key)
        return penalty(bp, key)

    tree.ext.penalty = counting
    txn = db.begin()
    tree.insert(txn, 101, "x")
    db.commit(txn)
    assert len(calls) == tree.height() - 1


# ---------------------------------------------------------------------------
# page order under add, merge and predicate update
# ---------------------------------------------------------------------------


@given(
    st.lists(keys, max_size=12),
    st.lists(keys, min_size=1, max_size=12),
)
def test_merged_run_equals_adding_one_by_one(existing, run):
    def page_with(entries):
        page = Page(pid=1, kind=PageKind.LEAF, capacity=32)
        for i, key in enumerate(entries):
            page.add_entry(LeafEntry(key, f"e{i}"))
        return page

    one_by_one, merged = page_with(existing), page_with(existing)
    for i, key in enumerate(run):
        one_by_one.add_entry(LeafEntry(key, f"n{i}"))
    merged.add_entries([LeafEntry(key, f"n{i}") for i, key in enumerate(run)])
    assert merged.entries == one_by_one.entries
    assert [e.key for e in merged.entries] == sorted(existing + run)
    for i, key in enumerate(run):
        assert merged.find_leaf_entry(key, f"n{i}") is not None
        assert merged.find_leaf_entry(key, "absent") is None


def test_widened_child_predicate_moves_to_its_place():
    page = Page(pid=1, kind=PageKind.INTERNAL, level=1, capacity=8)
    for child, lo in enumerate((0, 10, 20, 30)):
        page.add_entry(InternalEntry(Interval(lo, lo + 5), child))
    page.set_child_pred(2, Interval(-3, 25))
    assert [e.child for e in page.entries] == [2, 0, 1, 3]
    page.set_child_pred(2, Interval(12, 25))
    assert [e.child for e in page.entries] == [0, 1, 2, 3]


def test_unordered_extension_pages_keep_insertion_order(db, rtree):
    from repro.ext.rtree import Rect

    txn = db.begin()
    rects = [Rect(x, 0, x + 1, 1) for x in (5, 1, 3)]
    for i, rect in enumerate(rects):
        rtree.insert(txn, rect, f"r{i}")
    db.commit(txn)
    with db.pool.fixed(rtree.root_pid, LatchMode.S) as frame:
        assert [e.key for e in frame.page.entries] == rects
    assert rtree.query_bounds(rects[0]) is None


# ---------------------------------------------------------------------------
# split undo keeps the order
# ---------------------------------------------------------------------------


class LowHalfMovesRight(BTreeExtension):
    """Moves the *lower* half to the new sibling, so a split undo that
    appended the moved entries would leave the node unsorted."""

    def pick_split(self, preds):
        stay, move = super().pick_split(preds)
        return move, stay


@pytest.mark.parametrize("ext_cls", [BTreeExtension, LowHalfMovesRight])
@pytest.mark.parametrize("nth_split", [1, 2], ids=["leaf", "parent"])
def test_crash_inside_split_runs_split_undo_and_keeps_order(
    ext_cls, nth_split
):
    """A crash after a split's record but before its ``DummyClr``: the
    restart undoes the split page-oriented, and every node is sorted."""
    db = Database(page_capacity=4, lock_timeout=10.0)
    tree = db.create_tree("t", ext_cls())
    expected = {}
    txn = db.begin()
    # keys chosen so that the next insert splits a full leaf whose
    # parent is full too
    for i, key in enumerate([0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 25]):
        tree.insert(txn, key, f"r{i}")
        expected[f"r{i}"] = key
    db.commit(txn)
    assert check_tree(tree).ok

    splits = []

    def bomb(**_ctx):
        splits.append(1)
        if len(splits) == nth_split:
            raise CrashError("inside the split's atomic action")

    db.hooks.on("insert:after-split", bomb)
    loser = db.begin()
    with pytest.raises(CrashError):
        for key in (21, 22, 23, 24, 26, 27):
            tree.insert(loser, key, f"x{key}")
    db.hooks.clear()
    assert len(splits) == nth_split
    db.log.flush()  # the split records are durable, the DummyClr is not
    db.crash()
    db2 = db.restart({"t": ext_cls()})
    assert any(
        type(r).__name__ == "PageImageClr" for r in db2.log.records_from(1)
    )
    tree2 = db2.tree("t")
    report = check_tree(tree2)
    assert report.ok, report.errors
    txn = db2.begin()
    found = {rid: key for key, rid in tree2.search(txn, Interval(-1, 100))}
    db2.commit(txn)
    assert found == expected
