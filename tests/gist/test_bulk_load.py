"""Bottom-up bulk load: structure NTA, crash safety, fallbacks."""

import pytest

from repro.database import Database
from repro.errors import UniqueViolationError
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree
from repro.sync.latch import LatchMode


def _fresh(cap: int = 8) -> tuple[Database, object]:
    db = Database(page_capacity=cap, lock_timeout=10.0)
    tree = db.create_tree("bl", BTreeExtension())
    return db, tree


def _contents(db, tree):
    txn = db.begin()
    got = {
        (k, r) for k, r in tree.search(txn, Interval(-10**9, 10**9))
    }
    db.commit(txn)
    return got


class TestBulkLoad:
    def test_loads_sorted_batch_bottom_up(self):
        db, tree = _fresh()
        pairs = [(i, f"r{i}") for i in range(200)]
        txn = db.begin()
        assert tree.bulk_load(txn, pairs) == 200
        db.commit(txn)
        assert _contents(db, tree) == set(pairs)
        assert check_tree(tree).ok
        stats = tree.stats.snapshot()
        assert stats["bulk_loads"] == 1
        assert stats["bulk_pages_built"] > 200 // 8
        # built leaves hold int(capacity x 0.75) entries (gist.bulk.FILL)
        leaf_sizes = []
        for pid in tree.all_pids():
            with db.pool.fixed(pid, LatchMode.S) as frame:
                if frame.page.is_leaf:
                    leaf_sizes.append(len(frame.page.entries))
        assert sorted(leaf_sizes) == [200 % 6] + [int(8 * 0.75)] * (200 // 6)

    def test_unsorted_input_is_organized_first(self):
        db, tree = _fresh()
        pairs = [((i * 37) % 200, f"r{i}") for i in range(200)]
        txn = db.begin()
        tree.bulk_load(txn, pairs)
        db.commit(txn)
        assert _contents(db, tree) == set(pairs)
        assert check_tree(tree).ok

    def test_small_batch_falls_back_to_runs(self):
        db, tree = _fresh(cap=8)
        txn = db.begin()
        assert tree.bulk_load(txn, [(i, f"r{i}") for i in range(5)]) == 5
        db.commit(txn)
        assert tree.stats.snapshot()["bulk_loads"] == 0  # fallback path
        assert _contents(db, tree) == {(i, f"r{i}") for i in range(5)}

    def test_non_empty_tree_falls_back(self):
        db, tree = _fresh()
        txn = db.begin()
        tree.insert(txn, 500, "prior")
        db.commit(txn)
        pairs = [(i, f"r{i}") for i in range(100)]
        txn = db.begin()
        tree.bulk_load(txn, pairs)
        db.commit(txn)
        assert tree.stats.snapshot()["bulk_loads"] == 0
        assert _contents(db, tree) == set(pairs) | {(500, "prior")}
        assert check_tree(tree).ok

    def test_empty_batch(self):
        db, tree = _fresh()
        txn = db.begin()
        assert tree.bulk_load(txn, []) == 0
        db.commit(txn)

    def test_unique_duplicate_in_batch_rejected(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("u", BTreeExtension(), unique=True)
        txn = db.begin()
        with pytest.raises(UniqueViolationError):
            tree.bulk_load(
                txn, [(i, f"r{i}") for i in range(50)] + [(0, "dup")]
            )
        db.rollback(txn)
        assert _contents(db, tree) == set()

    def test_unique_fallback_checks_prior_content(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("u", BTreeExtension(), unique=True)
        txn = db.begin()
        tree.insert(txn, 3, "prior")
        db.commit(txn)
        txn = db.begin()
        with pytest.raises(UniqueViolationError):
            tree.bulk_load(txn, [(i, f"r{i}") for i in range(50)])
        db.rollback(txn)
        assert _contents(db, tree) == {(3, "prior")}

    def test_rollback_keeps_structure_drops_entries(self):
        db, tree = _fresh()
        pairs = [(i, f"r{i}") for i in range(150)]
        txn = db.begin()
        tree.bulk_load(txn, pairs)
        db.rollback(txn)
        # the NTA-built structure survives like any completed SMO,
        # but every entry was logically undone
        assert _contents(db, tree) == set()
        assert check_tree(tree).ok
        # and the tree is still fully usable
        txn = db.begin()
        tree.insert(txn, 7, "again")
        db.commit(txn)
        assert _contents(db, tree) == {(7, "again")}


class _Boom(Exception):
    pass


def _crash_at(point: str, *, fires: int = 1):
    """Crash a bulk_load at the Nth firing of ``point``; restart."""
    db, tree = _fresh()
    pairs = [(i, f"r{i}") for i in range(150)]
    seen = [0]

    def hook(**_ctx):
        seen[0] += 1
        if seen[0] == fires:
            db.log.flush()  # make everything logged so far durable
            raise _Boom

    db.hooks.on(point, hook)
    txn = db.begin()
    with pytest.raises(_Boom):
        tree.bulk_load(txn, pairs)
    db.crash()
    db2 = db.restart({"bl": BTreeExtension()})
    tree2 = db2.tree("bl")
    return db2, tree2


class TestBulkLoadCrashSafety:
    def test_crash_inside_structure_nta_rolls_back(self):
        # "bulk:attached" fires inside the NTA: restart must undo the
        # whole structure, restoring the empty-leaf root and freeing
        # every built page.
        db2, tree2 = _crash_at("bulk:attached")
        assert _contents(db2, tree2) == set()
        report = check_tree(tree2)
        assert report.ok
        assert report.pages == 1  # back to a lone empty root leaf
        txn = db2.begin()
        tree2.insert(txn, 1, "alive")
        db2.commit(txn)
        assert _contents(db2, tree2) == {(1, "alive")}

    def test_crash_after_nta_keeps_empty_structure(self):
        # "bulk:structure-built" fires after end_nta: the multi-level
        # skeleton of empty leaves survives restart as a legal tree.
        db2, tree2 = _crash_at("bulk:structure-built")
        assert _contents(db2, tree2) == set()
        report = check_tree(tree2)
        assert report.ok
        assert report.pages > 1  # structure survived
        txn = db2.begin()
        tree2.insert(txn, 1, "alive")
        db2.commit(txn)
        assert _contents(db2, tree2) == {(1, "alive")}

    @pytest.mark.parametrize("fires", [1, 3])
    def test_crash_between_leaf_fills_undoes_entries(self, fires):
        # the loading txn never committed: every filled entry must be
        # rolled back, the structure stays
        db2, tree2 = _crash_at("bulk:leaf-filled", fires=fires)
        assert _contents(db2, tree2) == set()
        assert check_tree(tree2).ok
