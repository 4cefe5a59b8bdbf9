"""Search (Figure 3): correctness, predicate attachment, RID locking."""

from repro.ext.btree import Interval
from repro.ext.rtree import Rect, RTreeExtension
from repro.lock.modes import LockMode
from repro.predicate.manager import PredicateKind
from repro.txn.transaction import IsolationLevel


class TestBasicSearch:
    def test_empty_tree(self, db, btree):
        txn = db.begin()
        assert btree.search(txn, Interval(0, 100)) == []
        db.commit(txn)

    def test_point_query(self, db, loaded_btree):
        txn = db.begin()
        assert loaded_btree.search(txn, Interval(42, 42)) == [(42, "r42")]
        db.commit(txn)

    def test_range_query_complete(self, db, loaded_btree):
        txn = db.begin()
        result = loaded_btree.search(txn, Interval(10, 30))
        db.commit(txn)
        assert sorted(k for k, _ in result) == list(range(10, 31))

    def test_query_outside_key_space(self, db, loaded_btree):
        txn = db.begin()
        assert loaded_btree.search(txn, Interval(1000, 2000)) == []
        db.commit(txn)

    def test_duplicate_keys_all_found(self, db, btree):
        txn = db.begin()
        for i in range(5):
            btree.insert(txn, 7, f"dup{i}")
        db.commit(txn)
        txn = db.begin()
        result = btree.search(txn, Interval(7, 7))
        db.commit(txn)
        assert sorted(r for _, r in result) == [f"dup{i}" for i in range(5)]

    def test_search_spanning_many_leaves(self, db, btree):
        txn = db.begin()
        for i in range(200):
            btree.insert(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        result = btree.search(txn, Interval(0, 199))
        db.commit(txn)
        assert len(result) == 200
        assert len({r for _, r in result}) == 200  # no duplicates

    def test_own_uncommitted_inserts_visible(self, db, btree):
        txn = db.begin()
        btree.insert(txn, 3, "mine")
        assert btree.search(txn, Interval(0, 10)) == [(3, "mine")]
        db.rollback(txn)

    def test_own_deletes_invisible(self, db, loaded_btree):
        txn = db.begin()
        loaded_btree.delete(txn, 5, "r5")
        result = loaded_btree.search(txn, Interval(4, 6))
        assert sorted(k for k, _ in result) == [4, 6]
        db.rollback(txn)


class TestHybridLockingSideEffects:
    def test_rr_search_locks_result_rids(self, db, loaded_btree):
        txn = db.begin()
        loaded_btree.search(txn, Interval(10, 12))
        for rid in ("r10", "r11", "r12"):
            assert (
                db.locks.held_mode(txn.xid, ("rid", rid)) == LockMode.S
            )
        db.commit(txn)
        assert db.locks.holders(("rid", "r10")) == {}

    def test_rc_search_leaves_no_locks(self, db, loaded_btree):
        txn = db.begin(IsolationLevel.READ_COMMITTED)
        loaded_btree.search(txn, Interval(10, 12))
        assert db.locks.held_mode(txn.xid, ("rid", "r10")) is None
        db.commit(txn)

    def test_rr_search_attaches_predicate_to_visited_nodes(
        self, db, loaded_btree
    ):
        txn = db.begin()
        loaded_btree.search(txn, Interval(10, 12))
        plocks = loaded_btree.predicates.predicates_of(txn.xid)
        assert len(plocks) == 1
        plock = plocks[0]
        assert plock.kind is PredicateKind.SEARCH
        assert loaded_btree.root_pid in plock.attachments
        assert len(plock.attachments) >= 2  # root + at least the leaf
        db.commit(txn)

    def test_rc_search_attaches_nothing(self, db, loaded_btree):
        txn = db.begin(IsolationLevel.READ_COMMITTED)
        loaded_btree.search(txn, Interval(10, 12))
        assert loaded_btree.predicates.predicates_of(txn.xid) == []
        db.commit(txn)

    def test_predicates_released_at_commit(self, db, loaded_btree):
        txn = db.begin()
        loaded_btree.search(txn, Interval(10, 12))
        db.commit(txn)
        assert loaded_btree.predicates.predicates_of(txn.xid) == []
        assert loaded_btree.predicates.total_predicates() == 0

    def test_attachment_invariant_holds(self, db, loaded_btree):
        """If the search predicate is consistent with a node's BP, it
        must be attached to that node (section 4.3)."""
        from repro.sync.latch import LatchMode

        txn = db.begin()
        query = Interval(20, 60)
        loaded_btree.search(txn, query)
        plock = loaded_btree.predicates.predicates_of(txn.xid)[0]
        ext = loaded_btree.ext
        for pid in loaded_btree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                bp = frame.page.bp
                if bp is not None and ext.consistent(bp, query):
                    assert pid in plock.attachments, (
                        f"predicate missing on node {pid} with BP {bp}"
                    )
        db.commit(txn)


class TestSearchCursor:
    def test_fetch_next_streams_results(self, db, loaded_btree):
        txn = db.begin()
        cursor = loaded_btree.open_cursor(txn, Interval(0, 9))
        rows = []
        while True:
            row = cursor.fetch_next()
            if row is None:
                break
            rows.append(row)
        cursor.close()
        db.commit(txn)
        assert sorted(k for k, _ in rows) == list(range(10))

    def test_fetch_after_exhaustion_returns_none(self, db, loaded_btree):
        txn = db.begin()
        cursor = loaded_btree.open_cursor(txn, Interval(5, 5))
        assert cursor.fetch_next() == (5, "r5")
        assert cursor.fetch_next() is None
        assert cursor.fetch_next() is None
        cursor.close()
        db.commit(txn)

    def test_close_releases_signaling_locks(self, db, loaded_btree):
        txn = db.begin()
        cursor = loaded_btree.open_cursor(txn, Interval(0, 99))
        cursor.fetch_next()  # leaves pointers stacked
        assert cursor.stack
        stacked = {loaded_btree.node_lock(e.pid) for e in cursor.stack}
        assert stacked <= db.signaling.names_of(txn.xid)
        cursor.close()
        # close gave back every hold, before end of transaction
        assert db.signaling.names_of(txn.xid) == set()
        assert len(db.signaling) == 0
        db.commit(txn)


class _CountingRect(Rect):
    """A key that counts how often it is hashed."""

    hashes = 0

    def __hash__(self) -> int:
        _CountingRect.hashes += 1
        return super().__hash__()


class TestLeafScanCost:
    def test_only_matching_leaf_entries_are_hashed(self, big_db):
        """The leaf scan tests ``consistent`` before it dedups by the
        ``(key, rid)`` pair, so a search pays one membership test and one
        insert per match, not a hash per entry of every visited leaf."""
        tree = big_db.create_tree("pts", RTreeExtension())
        n, k = 30, 3
        txn = big_db.begin()
        for x in range(n):  # one leaf (capacity 32) holds all of them
            tree.insert(txn, _CountingRect(x, 0, x, 0), f"r{x}")
        big_db.commit(txn)
        assert tree.height() == 1
        txn = big_db.begin()
        _CountingRect.hashes = 0
        found = tree.search(txn, Rect(0, 0, k - 1, 0))
        hashes = _CountingRect.hashes
        big_db.commit(txn)
        assert len(found) == k
        assert hashes == 2 * k < n
