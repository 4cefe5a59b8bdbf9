"""B-tree extension: interval algebra and extension-method contract."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval, MultiPoint, as_interval
from repro.gist.extension import GiSTExtension
from repro.storage.page import order_key


class TestInterval:
    def test_point_contains_itself(self):
        assert Interval.point(5).contains(5)

    def test_closed_bounds(self):
        iv = Interval(1, 5)
        assert iv.contains(1) and iv.contains(5) and iv.contains(3)
        assert not iv.contains(0) and not iv.contains(6)

    def test_open_bounds(self):
        iv = Interval(1, 5, lo_incl=False, hi_incl=False)
        assert not iv.contains(1) and not iv.contains(5)
        assert iv.contains(2)

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            Interval(5, 1)

    def test_intersects_overlap(self):
        assert Interval(1, 5).intersects(Interval(4, 9))
        assert Interval(4, 9).intersects(Interval(1, 5))
        assert not Interval(1, 3).intersects(Interval(4, 9))

    def test_intersects_touching_closed(self):
        assert Interval(1, 5).intersects(Interval(5, 9))

    def test_intersects_touching_open(self):
        assert not Interval(1, 5, hi_incl=False).intersects(
            Interval(5, 9)
        )
        assert not Interval(1, 5).intersects(
            Interval(5, 9, lo_incl=False)
        )

    def test_union_spans_both(self):
        assert Interval(1, 3).union_with(Interval(7, 9)) == Interval(1, 9)

    def test_union_preserves_inclusivity_at_extremes(self):
        a = Interval(1, 5, lo_incl=False)
        b = Interval(3, 9, hi_incl=False)
        u = a.union_with(b)
        assert u == Interval(1, 9, lo_incl=False, hi_incl=False)

    def test_strings_work(self):
        iv = Interval("apple", "mango")
        assert iv.contains("banana")
        assert not iv.contains("zebra")


class TestExtensionContract:
    ext = BTreeExtension()

    def test_consistent_point_vs_interval(self):
        assert self.ext.consistent(5, Interval(0, 10))
        assert self.ext.consistent(Interval(0, 10), 5)
        assert not self.ext.consistent(50, Interval(0, 10))

    def test_union_of_points_and_intervals(self):
        u = self.ext.union([3, Interval(5, 9), 1])
        assert u == Interval(1, 9)

    def test_union_empty_raises(self):
        with pytest.raises(ValueError):
            self.ext.union([])

    def test_penalty_zero_when_covered(self):
        assert self.ext.penalty(Interval(0, 10), 5) == 0.0

    def test_penalty_equals_stretch(self):
        assert self.ext.penalty(Interval(0, 10), 14) == 4.0
        assert self.ext.penalty(Interval(10, 20), 4) == 6.0

    def test_penalty_non_numeric_fallback(self):
        assert self.ext.penalty(Interval("b", "d"), "z") == 1.0
        assert self.ext.penalty(Interval("b", "d"), "c") == 0.0

    def test_pick_split_is_partition(self):
        preds = [9, 1, 5, 3, 7, 2]
        left, right = self.ext.pick_split(preds)
        assert sorted(left + right) == list(range(len(preds)))
        assert left and right

    def test_pick_split_respects_order(self):
        preds = [9, 1, 5, 3]
        left, right = self.ext.pick_split(preds)
        max_left = max(preds[i] for i in left)
        min_right = min(preds[i] for i in right)
        assert max_left <= min_right

    def test_same(self):
        assert self.ext.same(Interval(1, 5), Interval(1, 5))
        assert self.ext.same(5, Interval(5, 5))
        assert not self.ext.same(Interval(1, 5), Interval(1, 6))

    def test_eq_query_matches_only_key(self):
        eq = self.ext.eq_query(5)
        assert self.ext.consistent(5, eq)
        assert not self.ext.consistent(6, eq)

    def test_covers(self):
        assert self.ext.covers(Interval(0, 10), 5)
        assert not self.ext.covers(Interval(0, 10), 11)
        assert self.ext.covers(None, 123)  # None = whole space

    def test_declared_order_sorts_keys_and_intervals_by_lower_end(self):
        preds = [5, 1, Interval(3, 9), 3]
        assert sorted(preds, key=order_key) == [1, Interval(3, 9), 3, 5]
        assert self.ext.query_bounds(Interval(2, 4, lo_incl=False)) == (2, 4)
        assert self.ext.query_bounds(MultiPoint.of([7, 3, 5])) == (3, 7)
        assert self.ext.query_bounds(6) == (6, 6)
        assert self.ext.query_bounds(MultiPoint(())) is None

    def test_as_interval_idempotent(self):
        iv = Interval(1, 2)
        assert as_interval(iv) is iv
        assert as_interval(7) == Interval(7, 7)


class TestMultiPointConsistency:
    ext = BTreeExtension()

    def test_multipoint_vs_multipoint_is_share_a_member(self):
        a = MultiPoint.of([1, 5, 9])
        assert self.ext.consistent(a, MultiPoint.of([2, 5]))
        assert self.ext.consistent(MultiPoint.of([2, 5]), a)
        assert not self.ext.consistent(a, MultiPoint.of([2, 6]))
        assert not self.ext.consistent(a, MultiPoint.of([]))
        assert self.ext.consistent(a, a)

    def test_multipoint_on_either_side(self):
        mp = MultiPoint.of([1, 5, 9])
        for other, expected in [
            (5, True),
            (4, False),
            (Interval(2, 5, hi_incl=False), False),
            (Interval(2, 5), True),
            (Interval(9, 12, lo_incl=False), False),
        ]:
            assert self.ext.consistent(mp, other) is expected
            assert self.ext.consistent(other, mp) is expected


class _ParentBTree:
    """The predicate methods as they were before they compared by type:
    both sides normalised through ``as_interval`` on every call.  Kept
    here as the reference the fast paths must agree with."""

    def consistent(self, pred, query):
        if isinstance(query, MultiPoint):
            return query.intersects(as_interval(pred))
        if isinstance(pred, MultiPoint):
            return pred.intersects(as_interval(query))
        return as_interval(pred).intersects(as_interval(query))

    def union(self, preds):
        result = as_interval(preds[0])
        for pred in preds[1:]:
            result = result.union_with(as_interval(pred))
        return result

    def penalty(self, bp, key):
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

    def same(self, a, b):
        return as_interval(a) == as_interval(b)

    def covers(self, bp, key):
        return GiSTExtension.covers(self, bp, key)

    def sort_order(self, preds):
        return sorted(
            range(len(preds)), key=lambda i: as_interval(preds[i]).lo
        )


# Small domains, so equal and touching bounds come up all the time.
DOMAINS = (
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([-2, -1.5, -1, 0, 0.5, 1, 1.0, 2.5]),
    st.sampled_from(["a", "b", "bb", "c", "d"]),
)


@st.composite
def _intervals(draw, values):
    a, b = draw(values), draw(values)
    lo, hi = (a, b) if a <= b else (b, a)
    if lo == hi:
        return Interval(lo, hi)  # an open point interval is empty
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def _multipoints(values):
    return st.lists(values, max_size=4).map(MultiPoint.of)


def _in_one_domain(*shapes):
    """A tuple of predicates over one ordered domain; each shape picks
    what the position may hold (``k`` raw key, ``i`` Interval, ``m``
    MultiPoint)."""

    def position(values, shape):
        options = {
            "k": values,
            "i": _intervals(values),
            "m": _multipoints(values),
        }
        return st.one_of([options[kind] for kind in shape])

    return st.sampled_from(DOMAINS).flatmap(
        lambda values: st.tuples(*(position(values, s) for s in shapes))
    )


class TestFastPathsAgreeWithNormalisingReference:
    ext = BTreeExtension()
    ref = _ParentBTree()

    @given(_in_one_domain("kim", "kim"))
    def test_consistent(self, preds):
        pred, query = preds
        got = self.ext.consistent(pred, query)
        assert got == self.ext.consistent(query, pred)  # symmetric
        if isinstance(pred, MultiPoint) and isinstance(query, MultiPoint):
            # the reference raises TypeError here (fixed in this file's
            # TestMultiPointConsistency): share a member
            assert got == bool(set(pred.keys) & set(query.keys))
        else:
            assert got == self.ref.consistent(pred, query)

    @given(_in_one_domain("ki", "ki"))
    def test_penalty(self, preds):
        bp, key = preds
        got = self.ext.penalty(bp, key)
        assert got == self.ref.penalty(bp, key)
        assert got >= 0

    @given(_in_one_domain("ki", "ki"))
    def test_covers(self, preds):
        bp, key = preds
        assert self.ext.covers(bp, key) == self.ref.covers(bp, key)
        assert self.ext.covers(None, key)
        if self.ext.covers(bp, key) and not isinstance(key, Interval):
            assert self.ext.penalty(bp, key) == 0  # keys are raw values

    @given(
        st.sampled_from(DOMAINS).flatmap(
            lambda values: st.lists(
                st.one_of(values, _intervals(values)), min_size=1, max_size=6
            )
        )
    )
    def test_union_and_sort_order(self, preds):
        assert self.ext.union(preds) == self.ref.union(preds)
        order = self.ref.sort_order(preds)
        by_key = sorted(range(len(preds)), key=lambda i: order_key(preds[i]))
        assert by_key == order
        if len(preds) > 1:
            mid = len(order) // 2
            assert self.ext.pick_split(preds) == (order[:mid], order[mid:])

    @given(_in_one_domain("ki", "ki"))
    def test_same(self, preds):
        a, b = preds
        assert self.ext.same(a, b) == self.ref.same(a, b)
        assert self.ext.same(a, a)


def test_point_search_builds_no_interval_per_entry(monkeypatch):
    """The gate behind the fast paths: comparing a raw key or a BP with
    the query allocates nothing, so a point search constructs the
    ``eq_query`` interval and no other — however many entries it scans."""
    db = Database()
    ext = BTreeExtension()
    tree = db.create_tree("t", ext)
    keys = list(range(8_000))
    for start in range(0, len(keys), 100):
        txn = db.begin()
        for key in keys[start : start + 100]:
            tree.insert(txn, (key * 7919) % 8_000, f"r{key}")
        db.commit(txn)
    assert tree.height() >= 3

    built = []
    validate = Interval.__post_init__

    def counting(self):
        built.append((self.lo, self.hi))
        validate(self)

    monkeypatch.setattr(Interval, "__post_init__", counting)
    for probe in (0, 1234, 4000, 7999):
        del built[:]
        txn = db.begin()
        rows = tree.search(txn, ext.eq_query(probe))
        db.commit(txn)
        assert [key for key, _ in rows] == [probe]
        assert built == [(probe, probe)]
