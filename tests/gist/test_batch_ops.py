"""Batched multi-op APIs: multi_put / multi_get / multi_delete."""

import threading
import time

import pytest

from repro.database import Database
from repro.errors import KeyNotFoundError, UniqueViolationError
from repro.ext.btree import BTreeExtension, Interval
from repro.ext.rtree import Rect
from repro.gist.checker import check_tree
from repro.obs.history import HistoryRecorder, check_linearizability


def _all(db, tree, lo=-1_000_000, hi=1_000_000):
    txn = db.begin()
    got = {(k, r) for k, r in tree.search(txn, Interval(lo, hi))}
    db.commit(txn)
    return got


class TestMultiPut:
    def test_equivalent_to_point_inserts(self, db, btree):
        pairs = [(i * 3 % 50, f"r{i}") for i in range(50)]
        txn = db.begin()
        assert btree.multi_put(txn, pairs) == 50
        db.commit(txn)
        assert _all(db, btree) == set(pairs)
        assert check_tree(btree).ok

    def test_empty_batch(self, db, btree):
        txn = db.begin()
        assert btree.multi_put(txn, []) == 0
        db.commit(txn)

    def test_unsorted_input_is_organized(self, db, btree):
        pairs = [(k, f"r{k}") for k in (9, 1, 5, 3, 7, 0, 8, 2, 6, 4)]
        txn = db.begin()
        btree.multi_put(txn, pairs)
        db.commit(txn)
        assert _all(db, btree) == set(pairs)
        assert check_tree(btree).ok

    @pytest.mark.parametrize(
        "fixture, pairs, everything",
        [
            # organize order with heavy ties: 50 pairs over 7 keys
            (
                "btree",
                [(i % 7, f"r{i}") for i in range(50)],
                Interval(0, 10),
            ),
            # an extension with no organize order, collinear points
            (
                "rtree",
                [(Rect.point(i / 10, i / 10), f"p{i}") for i in range(10)],
                Rect(0, 0, 1, 1),
            ),
        ],
        ids=["organized-ties", "no-organize"],
    )
    def test_batch_shapes(self, request, db, fixture, pairs, everything):
        tree = request.getfixturevalue(fixture)
        txn = db.begin()
        assert tree.multi_put(txn, pairs) == len(pairs)
        db.commit(txn)
        txn = db.begin()
        assert set(tree.search(txn, everything)) == set(pairs)
        db.commit(txn)
        assert check_tree(tree).ok

    def test_rollback_undoes_whole_batch(self, db, btree):
        txn = db.begin()
        btree.insert(txn, 100, "keep")
        db.commit(txn)
        txn = db.begin()
        btree.multi_put(txn, [(i, f"r{i}") for i in range(40)])
        db.rollback(txn)
        assert _all(db, btree) == {(100, "keep")}
        assert check_tree(btree).ok

    def test_shares_descents_on_sorted_batch(self, big_db):
        tree = big_db.create_tree("bt", BTreeExtension())
        txn = big_db.begin()
        tree.multi_put(txn, [(i, f"r{i}") for i in range(200)])
        big_db.commit(txn)
        stats = tree.stats.snapshot()
        assert stats["batch_ops"] == 1
        assert stats["batch_keys"] == 200
        assert stats["batch_leaf_runs"] < 200
        assert stats["batch_descents_saved"] > 0
        assert check_tree(tree).ok

    def test_visible_within_same_txn(self, db, btree):
        txn = db.begin()
        btree.multi_put(txn, [(i, f"r{i}") for i in range(10)])
        got = {k for k, _ in btree.search(txn, Interval(0, 10))}
        db.commit(txn)
        assert got == set(range(10))

    def test_unique_tree_falls_back_per_key(self, db):
        tree = db.create_tree("u", BTreeExtension(), unique=True)
        txn = db.begin()
        tree.multi_put(txn, [(1, "a"), (2, "b")])
        db.commit(txn)
        txn = db.begin()
        with pytest.raises(UniqueViolationError):
            tree.multi_put(txn, [(3, "c"), (1, "dup")])
        db.rollback(txn)
        assert _all(db, tree) == {(1, "a"), (2, "b")}

    def test_rtree_batch_without_organize(self, db, rtree):
        # RTreeExtension has no organize order: the batch must still
        # land correctly via coverage-only runs.
        pairs = [
            (Rect.point(i / 30, (i * 7 % 10) / 10), f"p{i}")
            for i in range(30)
        ]
        txn = db.begin()
        assert rtree.multi_put(txn, pairs) == 30
        db.commit(txn)
        txn = db.begin()
        assert rtree.count(txn, Rect(0, 0, 1, 1)) == 30
        db.commit(txn)
        assert check_tree(rtree).ok


class TestMultiGet:
    def test_returns_rids_per_key(self, db, loaded_btree):
        txn = db.begin()
        out = loaded_btree.multi_get(txn, [3, 7, 999])
        db.commit(txn)
        assert out[3] and out[7]
        assert out[999] == []

    def test_matches_point_searches(self, db, btree):
        txn = db.begin()
        btree.multi_put(txn, [(i, f"r{i}") for i in range(60)])
        db.commit(txn)
        keys = [5, 17, 42, 59, 777]
        txn = db.begin()
        batched = btree.multi_get(txn, keys)
        single = {
            k: [r for _, r in btree.search(txn, Interval(k, k))]
            for k in keys
        }
        db.commit(txn)
        assert batched == single

    def test_duplicate_request_keys_collapse(self, db, loaded_btree):
        txn = db.begin()
        out = loaded_btree.multi_get(txn, [3, 3, 3])
        db.commit(txn)
        assert list(out) == [3]

    def test_single_descent_for_batch(self, db, btree):
        txn = db.begin()
        btree.multi_put(txn, [(i, f"r{i}") for i in range(30)])
        db.commit(txn)
        before = btree.stats.snapshot()
        txn = db.begin()
        btree.multi_get(txn, list(range(0, 30, 3)))
        db.commit(txn)
        after = btree.stats.snapshot()
        assert after["searches"] - before["searches"] == 1
        assert after["batch_descents_saved"] > before[
            "batch_descents_saved"
        ]

    def test_rtree_degrades_to_point_searches(self, db, rtree):
        # multi_eq_query is None for the R-tree: per-key degrade
        assert rtree.ext.multi_eq_query([Rect.point(0, 0)]) is None
        pts = [Rect.point(i / 10, i / 10) for i in range(5)]
        txn = db.begin()
        rtree.multi_put(txn, [(p, f"p{i}") for i, p in enumerate(pts)])
        db.commit(txn)
        txn = db.begin()
        out = rtree.multi_get(txn, pts[:3])
        db.commit(txn)
        assert all(out[p] for p in list(out)[:3])


class TestMultiDelete:
    def test_deletes_all_pairs(self, db, btree):
        pairs = [(i, f"r{i}") for i in range(30)]
        txn = db.begin()
        btree.multi_put(txn, pairs)
        db.commit(txn)
        txn = db.begin()
        assert btree.multi_delete(txn, pairs[5:25]) == 20
        db.commit(txn)
        assert _all(db, btree) == set(pairs[:5]) | set(pairs[25:])
        assert check_tree(btree).ok

    def test_missing_pair_raises_after_marking_found(self, db, btree):
        txn = db.begin()
        btree.multi_put(txn, [(1, "a"), (2, "b")])
        db.commit(txn)
        txn = db.begin()
        with pytest.raises(KeyNotFoundError):
            btree.multi_delete(txn, [(1, "a"), (9, "ghost")])
        db.rollback(txn)
        assert _all(db, btree) == {(1, "a"), (2, "b")}

    def test_pair_named_twice_raises_for_the_repeat(self, db, btree):
        txn = db.begin()
        btree.multi_put(txn, [(3, "r3"), (4, "r4")])
        db.commit(txn)
        before = btree.stats.snapshot()
        txn = db.begin()
        with pytest.raises(KeyNotFoundError):
            btree.multi_delete(txn, [(3, "r3"), (3, "r3")])
        # like a loop of delete() calls: the first naming was marked and
        # counted, the repeat found nothing left to delete
        after = btree.stats.snapshot()
        assert after["deletes"] - before["deletes"] == 1
        assert after["batch_ops"] == before["batch_ops"]
        assert btree.search(txn, Interval(3, 3)) == []
        db.rollback(txn)
        assert _all(db, btree) == {(3, "r3"), (4, "r4")}

    def test_missing_pair_counts_only_marked_entries(self, db, btree):
        txn = db.begin()
        btree.multi_put(txn, [(1, "a"), (2, "b")])
        db.commit(txn)
        before = btree.stats.snapshot()["deletes"]
        txn = db.begin()
        with pytest.raises(KeyNotFoundError):
            btree.multi_delete(txn, [(1, "a"), (9, "ghost"), (2, "b")])
        assert btree.stats.snapshot()["deletes"] - before == 2
        db.rollback(txn)

    def test_pair_named_twice_through_local_backend_batch(self):
        from repro.server.backend import LocalBackend

        db = Database(page_capacity=8)
        db.create_tree("t", BTreeExtension())
        backend = LocalBackend(db)
        backend.batch("t", [("put_many", [(3, "r3"), (4, "r4")])])
        with pytest.raises(KeyNotFoundError):
            backend.batch("t", [("delete_many", [(3, "r3"), (3, "r3")])])
        # the batch is one transaction: the mark rolled back with it
        assert backend.get("t", 3) == ["r3"]
        assert backend.multi_delete("t", [(3, "r3"), (4, "r4")]) == 2

    def test_rollback_restores_entries(self, db, btree):
        pairs = [(i, f"r{i}") for i in range(20)]
        txn = db.begin()
        btree.multi_put(txn, pairs)
        db.commit(txn)
        txn = db.begin()
        btree.multi_delete(txn, pairs)
        db.rollback(txn)
        assert _all(db, btree) == set(pairs)

    def test_empty_batch(self, db, btree):
        txn = db.begin()
        assert btree.multi_delete(txn, []) == 0
        db.commit(txn)

    def test_rtree_degrades_per_pair(self, db, rtree):
        pairs = [
            (Rect.point(i / 10, i / 10), f"p{i}") for i in range(8)
        ]
        txn = db.begin()
        rtree.multi_put(txn, pairs)
        db.commit(txn)
        txn = db.begin()
        assert rtree.multi_delete(txn, pairs[:4]) == 4
        db.commit(txn)
        txn = db.begin()
        assert rtree.count(txn, Rect(0, 0, 1, 1)) == 4
        db.commit(txn)


class TestPageFixGates:
    """What the batch paths are for, counted and not timed: page fixes
    (buffer-pool ``hits + misses``) to load 1000 sorted keys at page
    capacity 16.  A point insert descends from the root every time, a
    ``multi_put`` once per leaf run, a ``bulk_load`` not at all."""

    N = 1000

    def _load(self, add) -> tuple[int, dict]:
        db = Database(page_capacity=16, pool_capacity=4096)
        tree = db.create_tree("batch", BTreeExtension())
        txn = db.begin()
        before = db.pool.hits + db.pool.misses
        add(tree, txn, [(k, f"r{k}") for k in range(self.N)])
        fixes = db.pool.hits + db.pool.misses - before
        db.commit(txn)
        stats = tree.stats.snapshot()
        db.shutdown()
        return fixes, stats

    def test_batch_paths_share_descents(self):
        point, point_stats = self._load(
            lambda tree, txn, pairs: [tree.insert(txn, k, r) for k, r in pairs]
        )
        multi, multi_stats = self._load(
            lambda tree, txn, pairs: tree.multi_put(txn, pairs)
        )
        bulk, bulk_stats = self._load(
            lambda tree, txn, pairs: tree.bulk_load(txn, pairs)
        )
        assert point >= 3 * multi, f"point={point} multi_put={multi} fixes"
        assert multi_stats["batch_descents_saved"] > 0
        assert multi_stats["batch_leaf_runs"] < self.N
        # bottom-up build touches each page about once
        assert bulk < multi, f"bulk_load={bulk} multi_put={multi} fixes"
        assert bulk_stats["bulk_pages_built"] > 0
        # and a point insert is not a batch of one
        assert not any(
            count for name, count in point_stats.items() if "batch" in name
        )

    def test_point_delete_bumps_no_batch_counter(self, db, loaded_btree):
        before = loaded_btree.stats.snapshot()
        txn = db.begin()
        key, rid = loaded_btree.search(txn, Interval(0, 10**6))[0]
        loaded_btree.delete(txn, key, rid)
        db.commit(txn)
        after = loaded_btree.stats.snapshot()
        assert after["deletes"] == before["deletes"] + 1
        assert {k: v for k, v in after.items() if "batch" in k} == {
            k: v for k, v in before.items() if "batch" in k
        }


class TestDatabaseWrappers:
    def test_database_level_batch_apis(self):
        db = Database(page_capacity=8)
        db.create_tree("t", BTreeExtension())
        txn = db.begin()
        assert db.multi_put(txn, "t", [(1, "a"), (2, "b")]) == 2
        db.commit(txn)
        txn = db.begin()
        assert db.multi_get(txn, "t", [1, 2, 3]) == {
            1: ["a"],
            2: ["b"],
            3: [],
        }
        assert db.multi_delete(txn, "t", [(1, "a")]) == 1
        db.commit(txn)

    def test_commit_many_groups_the_force(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("t", BTreeExtension())
        txns = [db.begin() for _ in range(4)]
        for i, txn in enumerate(txns):
            tree.insert(txn, i, f"r{i}")
        before = db.log.stats.snapshot()["flushes"]
        db.commit_many(txns)
        after = db.log.stats.snapshot()["flushes"]
        assert after - before == 1  # one force covers all four
        assert _all(db, tree) == {(i, f"r{i}") for i in range(4)}


class TestBatchLinearizability:
    def test_concurrent_multi_ops_linearize(self):
        db = Database(page_capacity=8, lock_timeout=10.0)
        tree = db.create_tree("t", BTreeExtension())
        recorder = HistoryRecorder()
        base = [(i, f"base{i}") for i in range(0, 40, 2)]
        txn = db.begin()
        tree.multi_put(txn, base)
        db.commit(txn)
        for key, rid in base:
            recorder.add(
                "insert", inv_ns=0, resp_ns=1, key=key, rid=rid
            )

        def writer(wid: int) -> None:
            pairs = [(k, f"w{wid}-{k}") for k in range(wid, 40, 4)]
            txn = db.begin()
            inv = time.perf_counter_ns()
            tree.multi_put(txn, pairs)
            db.commit(txn)
            resp = time.perf_counter_ns()
            for key, rid in pairs:
                recorder.add(
                    "insert", inv_ns=inv, resp_ns=resp, key=key, rid=rid
                )

        def reader() -> None:
            for _ in range(5):
                txn = db.begin()
                inv = time.perf_counter_ns()
                query = tree.ext.multi_eq_query(list(range(40)))
                found = tree.search(txn, query)
                db.commit(txn)
                resp = time.perf_counter_ns()
                recorder.add(
                    "search",
                    inv_ns=inv,
                    resp_ns=resp,
                    query=query,
                    result=[rid for _, rid in found],
                )

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in (1, 3)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        report = check_linearizability(
            recorder.ops(), lambda q, k: q.contains(k)
        )
        assert report.ok, str(report)
        assert check_tree(tree).ok
