"""R-tree extension: rectangle algebra, R*-style split, tree shape,
end-to-end."""

import math
import random

import pytest

from repro.database import Database
from repro.ext.rtree import Rect, RTreeExtension
from repro.gist.checker import check_tree


class TestRect:
    def test_point_rect(self):
        p = Rect.point(0.5, 0.5)
        assert p.area == 0.0
        assert p.intersects(Rect(0, 0, 1, 1))

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    @pytest.mark.parametrize("corner", range(4))
    def test_nan_corner_raises(self, corner):
        # a NaN rectangle intersected every query but vanished from a
        # union whenever it was not first, so a BP could miss a key
        # that consistent() said matched
        coords = [0.0, 0.0, 1.0, 1.0]
        coords[corner] = math.nan
        with pytest.raises(ValueError):
            Rect(*coords)

    def test_infinite_corners_stay_legal(self):
        everything = Rect(-math.inf, -math.inf, math.inf, math.inf)
        assert everything.contains(Rect(0, 0, 1, 1))

    def test_intersects_and_disjoint(self):
        a = Rect(0, 0, 2, 2)
        assert a.intersects(Rect(1, 1, 3, 3))
        assert a.intersects(Rect(2, 2, 3, 3))  # touching counts
        assert not a.intersects(Rect(3, 3, 4, 4))

    def test_contains(self):
        assert Rect(0, 0, 4, 4).contains(Rect(1, 1, 2, 2))
        assert not Rect(0, 0, 4, 4).contains(Rect(3, 3, 5, 5))

    def test_union_and_area(self):
        u = Rect(0, 0, 1, 1).union_with(Rect(2, 2, 3, 3))
        assert u == Rect(0, 0, 3, 3)
        assert u.area == 9.0


class TestExtensionContract:
    ext = RTreeExtension()

    def test_penalty_is_area_growth(self):
        bp = Rect(0, 0, 2, 2)
        assert self.ext.penalty(bp, Rect(1, 1, 2, 2)) == 0.0
        assert self.ext.penalty(bp, Rect(0, 0, 4, 2)) == pytest.approx(
            4.0
        )

    def test_union(self):
        u = self.ext.union([Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)])
        assert u == Rect(0, 0, 6, 6)

    def test_pick_split_partition_and_balance(self):
        rng = random.Random(0)
        rects = [
            Rect.point(rng.random(), rng.random()) for _ in range(20)
        ]
        left, right = self.ext.pick_split(rects)
        assert sorted(left + right) == list(range(20))
        assert len(left) >= 20 // 3 and len(right) >= 20 // 3

    def test_pick_split_separates_clusters(self):
        low = [Rect.point(0.1 + i * 0.01, 0.1) for i in range(5)]
        high = [Rect.point(0.9 - i * 0.01, 0.9) for i in range(5)]
        rects = low + high
        left, right = self.ext.pick_split(rects)
        groups = [set(left), set(right)]
        assert {0, 1, 2, 3, 4} in groups or {
            5,
            6,
            7,
            8,
            9,
        } in groups

    def test_pick_split_minimum_size(self):
        with pytest.raises(ValueError):
            self.ext.pick_split([Rect.point(0, 0)])


class TestTreeShape:
    """Sibling MBRs that barely overlap: a read descends about one path.

    The same tree the ``embedded_rtree`` benchmark preloads — 4 000 unit
    squares at integer corners of a 1000×1000 space, 100 inserts per
    transaction, default pages — counted in page fixes, not time.  A
    height-3 tree needs 3 fixes per point search; Guttman's quadratic
    split needed 7.06 on this tree (5.4–9.5 over other build seeds).
    """

    SIDE, KEYS, WINDOW, PROBES = 1000, 4000, 20, 500

    @pytest.fixture(scope="class")
    def built(self):
        rng = random.Random(1)
        db = Database()
        tree = db.create_tree("rt", RTreeExtension())
        keys: dict = {}
        while len(keys) < self.KEYS:
            x, y = rng.randrange(self.SIDE - 1), rng.randrange(self.SIDE - 1)
            keys.setdefault(Rect(x, y, x + 1, y + 1), f"r{len(keys)}")
        pairs = list(keys.items())
        for i in range(0, len(pairs), 100):
            txn = db.begin()
            for key, rid in pairs[i : i + 100]:
                tree.insert(txn, key, rid)
            db.commit(txn)
        return db, tree, list(keys)

    @staticmethod
    def fixes_per_search(db, tree, queries) -> float:
        before = db.pool.hits + db.pool.misses
        for query in queries:
            txn = db.begin()
            tree.search(txn, query)
            db.commit(txn)
        return (db.pool.hits + db.pool.misses - before) / len(queries)

    def test_point_search_fixes(self, built):
        db, tree, keys = built
        rng = random.Random(2)
        probes = [rng.choice(keys) for _ in range(self.PROBES)]
        assert self.fixes_per_search(db, tree, probes) <= 3.5

    def test_window_search_fixes(self, built):
        db, tree, _ = built
        rng = random.Random(3)
        corner = self.SIDE - self.WINDOW
        windows = [
            Rect(x, y, x + self.WINDOW, y + self.WINDOW)
            for x, y in (
                (rng.randrange(corner), rng.randrange(corner))
                for _ in range(self.PROBES)
            )
        ]
        assert self.fixes_per_search(db, tree, windows) <= 4.5


class TestRTreeEndToEnd:
    def test_window_queries(self, db, rtree):
        rng = random.Random(42)
        points = {}
        txn = db.begin()
        for i in range(150):
            rect = Rect.point(rng.random(), rng.random())
            rid = f"p{i}"
            rtree.insert(txn, rect, rid)
            points[rid] = rect
        db.commit(txn)
        assert check_tree(rtree).ok
        window = Rect(0.25, 0.25, 0.75, 0.75)
        txn = db.begin()
        found = {rid for _, rid in rtree.search(txn, window)}
        db.commit(txn)
        expected = {
            rid
            for rid, rect in points.items()
            if rect.intersects(window)
        }
        assert found == expected

    def test_delete_and_research(self, db, rtree):
        txn = db.begin()
        rects = [Rect.point(i / 10, i / 10) for i in range(10)]
        for i, rect in enumerate(rects):
            rtree.insert(txn, rect, f"p{i}")
        db.commit(txn)
        txn = db.begin()
        rtree.delete(txn, rects[3], "p3")
        db.commit(txn)
        txn = db.begin()
        found = {rid for _, rid in rtree.search(txn, Rect(0, 0, 1, 1))}
        db.commit(txn)
        assert found == {f"p{i}" for i in range(10) if i != 3}

    def test_crash_recovery_spatial(self, db, rtree):
        txn = db.begin()
        for i in range(60):
            rtree.insert(txn, Rect.point(i / 60, (i * 7 % 60) / 60), f"p{i}")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"rt": RTreeExtension()})
        tree2 = db2.tree("rt")
        txn = db2.begin()
        found = tree2.search(txn, Rect(0, 0, 1, 1))
        db2.commit(txn)
        assert len(found) == 60
        assert check_tree(tree2).ok
