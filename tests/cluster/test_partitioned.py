"""PartitionedDatabase: routing, scatter-gather, metrics, re-open."""

import threading

import pytest

from repro.cluster import PartitionedDatabase
from repro.errors import ClusterError, WorkerFaultError
from repro.ext.btree import BTreeExtension, Interval


@pytest.fixture
def cluster():
    cluster = PartitionedDatabase(3, router="hash", page_capacity=16)
    cluster.create_tree("t", BTreeExtension())
    try:
        yield cluster
    finally:
        cluster.shutdown()


class TestBasicOps:
    def test_put_get_delete(self, cluster):
        ack = cluster.put("t", 42, "r42")
        assert ack["commit_lsn"] > 0
        assert ack["durable_lsn"] >= ack["commit_lsn"]
        assert cluster.get("t", 42) == ["r42"]
        # a batch that only read has no commit record to name
        (ack,) = cluster.apply_batch("t", [("get", 42)]).values()
        assert (ack["results"], ack["commit_lsn"]) == ([["r42"]], 0)
        cluster.delete("t", 42, "r42")
        assert cluster.get("t", 42) == []

    def test_multi_ops_span_partitions(self, cluster):
        pairs = [(i, f"r{i}") for i in range(120)]
        assert cluster.multi_put("t", pairs) == 120
        got = cluster.multi_get("t", list(range(120)))
        assert all(got[i] == [f"r{i}"] for i in range(120))
        assert cluster.multi_delete("t", pairs[:50]) == 50
        assert cluster.get("t", 0) == []
        assert cluster.get("t", 50) == ["r50"]

    def test_worker_errors_surface_typed(self, cluster):
        with pytest.raises(WorkerFaultError) as info:
            cluster.delete("t", 1, "never-inserted")
        assert "KeyNotFound" in info.value.kind

    def test_duplicate_tree_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.create_tree("t", BTreeExtension())

    def test_worker_survives_a_failed_request(self, cluster):
        with pytest.raises(WorkerFaultError):
            cluster.delete("t", 1, "nope")
        cluster.put("t", 1, "r1")  # same worker still serves
        assert cluster.get("t", 1) == ["r1"]


class TestScatterGather:
    def test_range_scan_is_ordered_and_complete(self, cluster):
        cluster.multi_put("t", [(i, f"r{i}") for i in range(300)])
        rows = cluster.search("t", Interval(37, 251))
        assert [k for k, _ in rows] == list(range(37, 252))

    def test_merged_scan_each_key_exactly_once_under_inserts(
        self, cluster
    ):
        """The exactly-once gather invariant, attacked concurrently.

        Writers keep inserting while scans run; a concurrent key may
        or may not appear in any given scan, but no key may ever
        appear twice — ownership is disjoint, so the merge never sees
        the same key from two partitions.
        """
        cluster.multi_put("t", [(i, f"base{i}") for i in range(200)])
        stop = threading.Event()
        errors: list[str] = []

        def writer(offset: int) -> None:
            i = 0
            while not stop.is_set() and i < 150:
                cluster.put("t", 200 + offset + i * 4, f"w{offset}-{i}")
                i += 1

        def scanner() -> None:
            for _ in range(25):
                rows = cluster.search("t", Interval(0, 10_000))
                keys = [k for k, _ in rows]
                if keys != sorted(keys):
                    errors.append("scan not ordered")
                if len(keys) != len(set(keys)):
                    dupes = {k for k in keys if keys.count(k) > 1}
                    errors.append(f"duplicate keys {sorted(dupes)[:5]}")
                if not set(range(200)) <= set(keys):
                    errors.append("preloaded keys missing from scan")

        threads = [
            threading.Thread(target=writer, args=(off,))
            for off in range(3)
        ] + [threading.Thread(target=scanner) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        assert errors == []


class TestMetrics:
    def test_snapshot_namespacing(self, cluster):
        cluster.multi_put("t", [(i, f"r{i}") for i in range(60)])
        cluster.search("t", Interval(0, 60))
        snap = cluster.snapshot()
        assert set(snap) == {"cluster", "partition", "aggregate"}
        assert sorted(snap["partition"]) == ["0", "1", "2"]
        routed = snap["cluster"]["cluster"]["routed_ops"]
        assert routed == 60
        per_partition = sum(
            snap["cluster"]["cluster"]["partition"][str(p)]["routed_ops"]
            for p in range(3)
        )
        assert per_partition == routed
        assert snap["cluster"]["cluster"]["scatter_queries"] == 1

    def test_aggregate_sums_partition_counters(self, cluster):
        cluster.multi_put("t", [(i, f"r{i}") for i in range(90)])
        snap = cluster.snapshot()
        total = snap["aggregate"]["txn"]["committed"]
        per = sum(
            snap["partition"][str(p)]["txn"]["committed"]
            for p in range(3)
        )
        assert total == per > 0


class TestReopen:
    def test_reopen_recovers_all_partitions(self, cluster):
        cluster.multi_put("t", [(i, f"r{i}") for i in range(150)])
        reopened = cluster.restart()
        try:
            rows = reopened.search("t", Interval(0, 150))
            assert [k for k, _ in rows] == list(range(150))
            # every partition really recovered from its shadow
            for handle in reopened.supervisor.handles.values():
                assert handle.ready_info["recovered"] is not None
        finally:
            reopened.shutdown()
