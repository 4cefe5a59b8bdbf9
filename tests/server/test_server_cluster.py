"""End-to-end serving over a partitioned cluster backend.

The robustness story under test: a hung (SIGSTOPped) partition worker
must surface to network clients as *bounded* ``RetryLater``
backpressure — first ``partition_timeout`` when the RPC deadline
fires, then ``circuit_open`` fast-fails while the breaker cools down —
and the partition must come back via the half-open probe, all without
stalling clients whose keys live on healthy partitions.
"""

import os
import signal
import time

import pytest

from repro.cluster import PartitionedDatabase
from repro.errors import RemoteOpError, RetryLater
from repro.ext.btree import BTreeExtension, Interval
from repro.server import (
    ClusterBackend,
    DatabaseServer,
    ReproClient,
)


@pytest.fixture
def cluster():
    c = PartitionedDatabase(
        2,
        router="hash",
        rpc_timeout=0.4,
        breaker_cooldown=0.5,
    )
    c.create_tree("t", BTreeExtension())
    yield c
    c.shutdown()


@pytest.fixture
def server(cluster):
    with DatabaseServer(ClusterBackend(cluster), port=0) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ReproClient("127.0.0.1", server.port, "cluster-test") as c:
        yield c


def _key_for(cluster, partition):
    return next(
        k
        for k in range(1000)
        if cluster.router.partition_of(k) == partition
    )


class TestVerbs:
    def test_round_trip_across_partitions(self, cluster, client):
        for k in range(40):
            client.put("t", k, f"r{k}")
        assert client.get("t", 17) == ["r17"]
        got = client.multi_get("t", [3, 8, 900])
        assert got[3] == ["r3"] and got[900] == []
        pairs = client.search("t", Interval(10, 14))
        assert [k for k, _ in pairs] == [10, 11, 12, 13, 14]

    def test_batch_results_in_input_order(self, cluster, client):
        k0, k1 = _key_for(cluster, 0), _key_for(cluster, 1)
        ack = client.batch(
            "t",
            [
                ("put", k0, "a0"),
                ("put", k1, "b0"),
                ("get", k0),
                ("get", k1),
                ("delete", k0, "a0"),
                ("get", k0),
            ],
        )
        results = ack["results"]
        # apply_batch executes per partition; the backend must restore
        # the caller's positional order across the partition split
        assert results[2] == ["a0"]
        assert results[3] == ["b0"]
        assert results[5] == []
        assert set(ack["commit_lsn"]) == {0, 1}

    def test_stats_merges_cluster_namespaces(self, client):
        client.put("t", 1, "r1")
        stats = client.stats()
        assert "cluster" in stats["backend"]
        assert "aggregate" in stats["backend"]
        merged = stats["merged"]
        assert "server" in merged and "cluster" in merged

    def test_health_includes_breaker_states(self, client):
        health = client.health()
        breakers = health["backend"]["breakers"]
        assert breakers["0"]["state"] == "closed"
        assert breakers["1"]["state"] == "closed"


class TestHungPartition:
    def _sigstop(self, cluster, partition):
        os.kill(
            cluster.supervisor.handles[partition].process.pid,
            signal.SIGSTOP,
        )

    def test_hung_partition_becomes_bounded_backpressure(
        self, cluster, client
    ):
        k0 = _key_for(cluster, 0)
        client.put("t", k0, "r0")
        self._sigstop(cluster, 0)
        start = time.monotonic()
        with pytest.raises(RetryLater) as info:
            client.get("t", k0, timeout=5.0)
        # bounded by the RPC deadline, not the client's 5s budget
        assert time.monotonic() - start < 2.0
        assert info.value.reason == "partition_timeout"
        assert info.value.retry_after > 0

    def test_open_breaker_fast_fails_then_recovers(
        self, cluster, client
    ):
        k0 = _key_for(cluster, 0)
        client.put("t", k0, "r0")
        self._sigstop(cluster, 0)
        with pytest.raises(RetryLater):
            client.get("t", k0, timeout=5.0)
        start = time.monotonic()
        with pytest.raises(RetryLater) as info:
            client.get("t", k0, timeout=5.0)
        assert time.monotonic() - start < 0.2
        assert info.value.reason == "circuit_open"
        time.sleep(0.55)  # breaker cooldown elapses
        assert client.get("t", k0, timeout=5.0) == ["r0"]
        assert cluster.supervisor.restarts == 1

    def test_healthy_partition_unaffected(self, cluster, client):
        k0, k1 = _key_for(cluster, 0), _key_for(cluster, 1)
        client.put("t", k1, "r1")
        self._sigstop(cluster, 0)
        with pytest.raises(RetryLater):
            client.get("t", k0, timeout=5.0)
        start = time.monotonic()
        assert client.get("t", k1, timeout=5.0) == ["r1"]
        assert time.monotonic() - start < 0.3


class TestKilledPartition:
    def test_killed_worker_errors_then_recovers(self, cluster, client):
        k0 = _key_for(cluster, 0)
        client.put("t", k0, "r0")
        cluster.kill_partition(0)
        # the death is detected on first contact; the supervisor
        # replays the WAL shadow inline and the next call serves
        try:
            got = client.get("t", k0, timeout=5.0)
        except (RemoteOpError, RetryLater):
            got = client.get("t", k0, timeout=5.0)
        assert got == ["r0"]
