"""Property-based tests of the R-tree extension's rectangle algebra."""

import struct
from functools import reduce

from hypothesis import given
from hypothesis import strategies as st

from repro.ext.rtree import Rect, RTreeExtension

ext = RTreeExtension()

coords = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw, coords=coords):
    x1, x2 = draw(coords), draw(coords)
    y1, y2 = draw(coords), draw(coords)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


#: rectangles anywhere, ints and floats, so the agreement tests below
#: also meet negative corners and mixed coordinate types
wide = rects(
    st.one_of(
        st.integers(-(10**6), 10**6),
        st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
    )
)

#: a far-apart copy of the unit square along both axes
GAP = 10.0


@st.composite
def two_clusters(draw):
    """Rectangles in two unit squares ``GAP`` apart along each axis,
    shuffled, with each cluster big enough to be one side of a split
    (``max(1, 2n // 5)`` entries), and which cluster each came from."""
    unit = st.floats(0.0, 1.0, allow_nan=False)
    a = draw(st.integers(1, 16))
    b = draw(st.integers(1, 16))
    m = max(1, 2 * (a + b) // 5)
    if min(a, b) < m:
        b = a  # equal halves always qualify
    near = draw(st.lists(rects(unit), min_size=a, max_size=a))
    far = [
        Rect(r.xlo + GAP, r.ylo + GAP, r.xhi + GAP, r.yhi + GAP)
        for r in draw(st.lists(rects(unit), min_size=b, max_size=b))
    ]
    tagged = draw(st.permutations([(r, 0) for r in near] + [(r, 1) for r in far]))
    return [r for r, _ in tagged], [c for _, c in tagged]


def float_bits(value) -> bytes:
    return struct.pack("<d", value)


class TestRectAlgebra:
    @given(rects(), rects())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects())
    def test_self_intersects(self, r):
        assert r.intersects(r)

    @given(rects(), rects())
    def test_union_commutative(self, a, b):
        assert a.union_with(b) == b.union_with(a)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union_with(b)
        assert u.contains(a) and u.contains(b)

    @given(rects(), rects())
    def test_union_area_superadditive_on_each(self, a, b):
        u = a.union_with(b)
        assert u.area >= a.area and u.area >= b.area

    @given(rects(), rects())
    def test_contains_implies_intersects(self, a, b):
        if a.contains(b):
            assert a.intersects(b)

    @given(rects(), rects())
    def test_penalty_nonnegative(self, bp, key):
        assert ext.penalty(bp, key) >= 0.0

    @given(rects(), rects())
    def test_containment_implies_zero_penalty(self, bp, key):
        # (the converse is false for degenerate zero-area rectangles:
        # Guttman's area penalty cannot see growth along a line)
        if bp.contains(key):
            assert ext.penalty(bp, key) == 0.0


class TestRTreeExtensionProperties:
    @given(st.lists(rects(), min_size=1, max_size=25))
    def test_union_covers_all(self, items):
        u = ext.union(items)
        for r in items:
            assert u.contains(r)

    @given(st.lists(rects(), min_size=2, max_size=25))
    def test_pick_split_partition(self, items):
        left, right = ext.pick_split(items)
        assert sorted(left + right) == list(range(len(items)))
        assert left and right

    @given(st.lists(rects(), min_size=6, max_size=25))
    def test_pick_split_not_degenerate(self, items):
        left, right = ext.pick_split(items)
        min_fill = max(1, len(items) // 3)
        assert len(left) >= min_fill and len(right) >= min_fill

    @given(st.lists(rects(), min_size=2, max_size=40))
    def test_pick_split_sides_hold_m(self, items):
        # m = max(1, 2n // 5) >= max(1, n // 3): the bound above follows
        left, right = ext.pick_split(items)
        m = max(1, 2 * len(items) // 5)
        assert len(left) >= m and len(right) >= m

    @given(two_clusters())
    def test_pick_split_separates_clusters(self, case):
        # the cut between the clusters is a candidate on either axis,
        # overlaps nothing, and every other cut puts both clusters on
        # one side, whose MBR then covers at least (GAP - 1)² of area
        items, cluster = case
        left, right = ext.pick_split(items)
        sides = ({cluster[i] for i in left}, {cluster[i] for i in right})
        assert sides in (({0}, {1}), ({1}, {0}))
        left_mbr = ext.union([items[i] for i in left])
        right_mbr = ext.union([items[i] for i in right])
        assert not left_mbr.intersects(right_mbr)

    @given(st.lists(wide, min_size=2, max_size=40))
    def test_pick_split_deterministic(self, items):
        assert ext.pick_split(items) == ext.pick_split(list(items))


class TestAgreesWithRectAlgebra:
    """The extension reads corners directly; each method must still
    give exactly what the :class:`Rect` methods it replaces give."""

    @given(wide, wide)
    def test_penalty_is_area_growth_bit_for_bit(self, bp, key):
        expected = bp.union_with(key).area - bp.area
        assert float_bits(ext.penalty(bp, key)) == float_bits(expected)

    @given(st.lists(wide, min_size=1, max_size=25))
    def test_union_is_the_fold_of_union_with(self, items):
        assert ext.union(items) == reduce(Rect.union_with, items)

    @given(wide, wide)
    def test_consistent_is_intersects(self, a, b):
        assert ext.consistent(a, b) == a.intersects(b)

    @given(wide, wide)
    def test_covers_is_contains(self, bp, key):
        assert ext.covers(bp, key) == bp.contains(key)
