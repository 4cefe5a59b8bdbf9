"""Convenience bulk APIs: count, delete_where."""

import threading

from repro.errors import TransactionAbort
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree


class TestCount:
    def test_count_matches_search(self, db, loaded_btree):
        txn = db.begin()
        query = Interval(10, 40)
        assert loaded_btree.count(txn, query) == len(
            loaded_btree.search(txn, query)
        )
        db.commit(txn)

    def test_count_is_sampled_like_a_search(self, db, loaded_btree):
        """count() runs inside the same envelope as search(): the
        ``gist.searches`` counter and the ``gist.op.search_ns``
        histogram move together."""

        def observed() -> tuple[int, int]:
            gist = db.metrics.snapshot()["gist"]
            return gist["searches"], gist["op"]["search_ns"]["count"]

        before = observed()
        txn = db.begin()
        for lo in range(3):
            loaded_btree.search(txn, Interval(lo, lo + 5))
        for lo in range(2):
            loaded_btree.count(txn, Interval(lo, lo + 5))
        db.commit(txn)
        after = observed()
        assert [b - a for a, b in zip(before, after)] == [5, 5]
        assert before[0] == before[1]

    def test_count_zero(self, db, loaded_btree):
        txn = db.begin()
        assert loaded_btree.count(txn, Interval(1000, 2000)) == 0
        db.commit(txn)

    def test_count_is_phantom_protected_under_rr(self, db, loaded_btree):
        reader = db.begin()
        first = loaded_btree.count(reader, Interval(10, 20))
        blocked = []

        def writer():
            txn = db.begin()
            try:
                loaded_btree.insert(txn, 15, "phantom")
                db.commit(txn)
                blocked.append(False)
            except TransactionAbort:
                db.rollback(txn)
                blocked.append(True)

        t = threading.Thread(target=writer)
        t.start()
        t.join(0.3)
        second = loaded_btree.count(reader, Interval(10, 20))
        assert first == second
        db.commit(reader)
        t.join(10.0)


class TestDeleteWhere:
    def test_deletes_exactly_matching(self, db, loaded_btree):
        txn = db.begin()
        n = loaded_btree.delete_where(txn, Interval(10, 19))
        db.commit(txn)
        assert n == 10
        txn = db.begin()
        remaining = {
            k for k, _ in loaded_btree.search(txn, Interval(0, 99))
        }
        db.commit(txn)
        assert remaining == set(range(100)) - set(range(10, 20))

    def test_delete_where_empty_range(self, db, loaded_btree):
        txn = db.begin()
        assert loaded_btree.delete_where(txn, Interval(500, 600)) == 0
        db.commit(txn)

    def test_delete_where_rolls_back_atomically(self, db, loaded_btree):
        txn = db.begin()
        loaded_btree.delete_where(txn, Interval(0, 49))
        db.rollback(txn)
        txn = db.begin()
        assert loaded_btree.count(txn, Interval(0, 99)) == 100
        db.commit(txn)

    def test_delete_where_then_crash(self, db, loaded_btree):
        txn = db.begin()
        loaded_btree.delete_where(txn, Interval(0, 49))
        db.commit(txn)
        db.crash()
        db2 = db.restart({"bt": BTreeExtension()})
        tree2 = db2.tree("bt")
        txn = db2.begin()
        assert tree2.count(txn, Interval(0, 99)) == 50
        db2.commit(txn)
        assert check_tree(tree2).ok
