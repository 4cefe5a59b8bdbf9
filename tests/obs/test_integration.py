"""End-to-end wiring of the observability layer.

A real workload against a full :class:`~repro.database.Database` must
leave traces in every subsystem's corner of ``db.metrics.snapshot()``
— the dotted names asserted here are the public contract documented in
README.md's "Observability" section.
"""

import json
from functools import partial

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.maintenance import vacuum
from repro.obs.metrics import MetricsRegistry
from repro.tools.inspect import dump_stats


def run_workload(db, tree, n=60):
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    txn = db.begin()
    for i in range(0, n, 7):
        tree.search(txn, Interval(i, i + 5))
    db.commit(txn)
    txn = db.begin()
    for i in range(0, n, 3):
        tree.delete(txn, i, f"r{i}")
    db.commit(txn)


class TestSnapshotWiring:
    def test_every_subsystem_reports(self):
        # a small pool forces misses and evictions alongside the hits
        # (but large enough for the pinned set of a root-split chain)
        db = Database(page_capacity=4, pool_capacity=16)
        tree = db.create_tree("obs", BTreeExtension())
        run_workload(db, tree)
        snap = db.metrics.snapshot()

        # latches: acquisitions are batched (1 in LatchTimer.SAMPLE_EVERY
        # is timed); this workload makes hundreds of them
        assert snap["latch"]["acquisitions"] > 0
        assert snap["latch"]["wait_ns"]["count"] > 0
        assert snap["latch"]["hold_ns"]["count"] > 0

        buf = snap["buffer"]
        assert buf["hits"] > 0
        assert buf["misses"] > 0
        assert buf["evictions"] > 0
        assert 0.0 < buf["hit_rate"] <= 1.0

        assert snap["wal"]["appends"] > 0
        assert snap["wal"]["flushes"] > 0

        assert snap["lock"]["acquires"] > 0

        g = snap["gist"]
        assert g["searches"] > 0
        assert g["inserts"] > 0
        assert g["deletes"] > 0
        assert g["splits"] > 0
        assert g["op"]["search_ns"]["count"] == g["searches"]
        assert g["op"]["insert_ns"]["count"] == g["inserts"]
        assert g["op"]["delete_ns"]["count"] == g["deletes"]
        # rare protocol counters are present even when the quiet
        # single-thread workload never trips them (scenario tests
        # provoke them deterministically)
        assert g["restarts"]["nsn_mismatch"] >= 0
        assert g["drain"]["waits"] >= 0

        assert snap["io"]["reads"] > 0
        assert snap["io"]["writes"] > 0

        assert snap["txn"]["committed"] == 3
        assert snap["txn"]["active"] == 0

    def test_registry_counters_match_per_tree_stats(self):
        """The shared gist.* counters mirror tree.stats exactly when a
        single tree is active."""
        db = Database(page_capacity=4)
        tree = db.create_tree("mirror", BTreeExtension())
        run_workload(db, tree, n=30)
        snap = db.metrics.snapshot()["gist"]
        stats = tree.stats.snapshot()
        assert snap["searches"] == stats["searches"]
        assert snap["inserts"] == stats["inserts"]
        assert snap["splits"] == stats["splits"]
        assert snap["restarts"]["nsn_mismatch"] == stats["nsn_restarts"]

    def test_signaling_traffic_is_reported(self):
        """Signaling locks bypass ``lock.acquires``: their takes have a
        gauge of their own, and ``db.stats()`` counts the names held."""
        db = Database(page_capacity=4)
        tree = db.create_tree("sig", BTreeExtension())
        run_workload(db, tree, n=30)
        takes = db.metrics.snapshot()["lock"]["signaling_takes"]
        assert takes > 0
        assert db.stats()["locks"]["signaling_takes"] == takes
        assert db.stats()["locks"]["signaling_held"] == 0  # all committed
        txn = db.begin()
        cursor = tree.open_cursor(txn, Interval(0, 29))
        cursor.fetch_next()  # pointers stacked, holds live
        assert db.stats()["locks"]["signaling_held"] == len(
            db.signaling.names_of(txn.xid)
        ) > 0
        cursor.close()
        db.commit(txn)
        assert db.stats()["locks"]["signaling_held"] == 0

    def test_drain_waits_surface_in_snapshot(self):
        """The section 7.2 drain technique shows up as gist.drain.waits:
        vacuum finds empty nodes pinned by signaling locks."""
        db = Database(page_capacity=4, lock_timeout=5.0)
        tree = db.create_tree("drain", BTreeExtension())
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        txn = db.begin()
        for i in range(40):
            tree.delete(txn, i, f"r{i}")
        db.commit(txn)
        holder = db.begin()
        for pid in tree.all_pids():
            db.signaling.take(holder.xid, tree.node_lock(pid))
        vac = db.begin()
        report = vacuum(tree, vac)
        db.commit(vac)
        db.commit(holder)
        assert report.deletions_blocked > 0
        assert db.metrics.snapshot()["gist"]["drain"]["waits"] > 0


class TestExporters:
    def test_dump_stats_renders_contract_names(self):
        db = Database(page_capacity=4)
        tree = db.create_tree("dump", BTreeExtension())
        run_workload(db, tree, n=30)
        text = dump_stats(db)
        for name in (
            "wal.appends",
            "buffer.hits",
            "lock.acquires",
            "lock.signaling_takes",
            "latch.wait_ns",
            "gist.op.insert_ns",
        ):
            assert name in text, f"{name} missing from dump_stats output"

    def test_to_json_parses_and_nests(self):
        db = Database(page_capacity=4)
        tree = db.create_tree("json", BTreeExtension())
        run_workload(db, tree, n=30)
        parsed = json.loads(db.metrics.to_json())
        assert parsed["wal"]["appends"] > 0
        assert parsed["gist"]["op"]["insert_ns"]["count"] > 0


class TestRestartContinuity:
    def test_recovery_metrics_and_wal_totals_carry_over(self):
        db = Database(page_capacity=4)
        tree = db.create_tree("obs", BTreeExtension())
        txn = db.begin()
        for i in range(20):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        appends_before = db.log.stats.appends
        assert appends_before > 0
        db.crash()
        db2 = db.restart({"obs": BTreeExtension()})
        snap = db2.metrics.snapshot()
        assert snap["recovery"]["runs"] == 1
        assert snap["recovery"]["analysis_ns"]["count"] == 1
        assert snap["recovery"]["redo_ns"]["count"] == 1
        assert snap["recovery"]["undo_ns"]["count"] == 1
        # the log manager survives the restart: its totals are
        # cumulative across the crash boundary
        assert snap["wal"]["appends"] >= appends_before
        # and the recovered tree still works
        txn = db2.begin()
        assert db2.tree("obs").search(txn, Interval(5, 5)) == [(5, "r5")]
        db2.commit(txn)


class TestDisabledEndToEnd:
    def test_disabled_database_works_and_reports_nothing(self, monkeypatch):
        # the metrics call budget's reference: the same assembly over a
        # disabled registry
        monkeypatch.setattr(
            "repro.database.MetricsRegistry",
            partial(MetricsRegistry, enabled=False),
        )
        db = Database(page_capacity=4)
        tree = db.create_tree("quiet", BTreeExtension())
        run_workload(db, tree, n=30)
        assert db.metrics.snapshot() == {}
        assert db.metrics.to_json() == "{}"
        # subsystem counters that are plain ints under their own mutex
        # still count — only the registry is silent
        assert db.pool.hits > 0
        assert db.log.stats.appends > 0
        txn = db.begin()
        assert tree.search(txn, Interval(1, 1)) == [(1, "r1")]
        db.commit(txn)
