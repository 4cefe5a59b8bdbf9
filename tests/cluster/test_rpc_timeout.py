"""Per-call RPC timeouts: channel layer + cluster layer + SIGSTOP.

The regression that motivates this file: before per-call timeouts, a
SIGSTOPped partition worker (hung, not dead — no EOF ever arrives)
would hang ``_call`` and ``_scatter`` forever.  Now the call raises
:class:`~repro.errors.PartitionTimeoutError` within its deadline, the
hung worker is SIGKILLed, its breaker opens, and healthy partitions
keep serving.
"""

import os
import signal
import threading
import time

import pytest

from repro.cluster.breaker import BreakerState
from repro.cluster.rpc import channel_pair
from repro.errors import (
    CircuitOpenError,
    PartitionFailedError,
    PartitionTimeoutError,
    RpcTimeoutError,
)
from repro.ext.btree import BTreeExtension


class TestChannelTimeouts:
    def test_recv_timeout_raises_typed_error(self):
        a, b = channel_pair()
        try:
            start = time.monotonic()
            with pytest.raises(RpcTimeoutError):
                a.recv(timeout=0.05)
            assert time.monotonic() - start < 1.0
        finally:
            a.close()
            b.close()

    def test_recv_without_timeout_still_blocks_until_data(self):
        a, b = channel_pair()
        try:
            threading.Timer(0.05, lambda: b.send("late")).start()
            assert a.recv(timeout=5.0) == "late"
        finally:
            a.close()
            b.close()

    def test_recv_timeout_spans_whole_frame(self):
        """The deadline covers header + payload, not each chunk."""
        a, b = channel_pair()
        try:
            b.send(list(range(1000)))
            assert a.recv(timeout=1.0) == list(range(1000))
        finally:
            a.close()
            b.close()

    def test_send_timeout_on_full_buffer(self):
        a, b = channel_pair()
        try:
            payload = b"x" * 1_000_000
            with pytest.raises(RpcTimeoutError):
                # nobody drains b: the socketpair buffer fills and
                # sendall blocks until the timeout fires
                for _ in range(64):
                    a.send(payload, timeout=0.05)
        finally:
            a.close()
            b.close()


@pytest.fixture
def cluster():
    from repro.cluster import PartitionedDatabase

    c = PartitionedDatabase(
        2,
        router="hash",
        rpc_timeout=0.4,
        breaker_cooldown=0.4,
    )
    c.create_tree("t", BTreeExtension())
    yield c
    c.shutdown()


def _key_for(cluster, partition):
    return next(
        k
        for k in range(1000)
        if cluster.router.partition_of(k) == partition
    )


def _sigstop(cluster, partition):
    os.kill(
        cluster.supervisor.handles[partition].process.pid,
        signal.SIGSTOP,
    )


def _frames_sent(cluster, partition):
    return cluster.supervisor.handles[partition].channel.frames_sent


def _assert_failed_fast(cluster, partition, frames_before):
    """An open breaker refused one call before any RPC: the first
    timeout's dead worker was neither sent a frame nor respawned."""
    assert _frames_sent(cluster, partition) == frames_before
    assert cluster.supervisor.restarts == 0
    assert cluster.metrics.counter_value("cluster.rpc.timeouts") == 1
    assert cluster._breakers[partition].rejections == 1


class TestClusterTimeouts:
    def test_sigstopped_worker_times_out_not_hangs(self, cluster):
        """The headline regression: a hung worker used to hang forever."""
        k0 = _key_for(cluster, 0)
        cluster.put("t", k0, "r0")
        _sigstop(cluster, 0)
        start = time.monotonic()
        with pytest.raises(PartitionTimeoutError) as info:
            cluster.get("t", k0)
        assert time.monotonic() - start < 2.0
        assert info.value.partition == 0
        assert info.value.timeout == pytest.approx(0.4)
        assert cluster.metrics.counter_value("cluster.rpc.timeouts") == 1

    def test_timeout_trips_breaker_and_fails_fast(self, cluster):
        k0 = _key_for(cluster, 0)
        _sigstop(cluster, 0)
        with pytest.raises(PartitionTimeoutError):
            cluster.get("t", k0)
        assert cluster._breakers[0].state == BreakerState.OPEN
        sent = _frames_sent(cluster, 0)
        with pytest.raises(CircuitOpenError) as info:
            cluster.get("t", k0)
        # no RPC happened: not a frame sent, no respawn, no new timeout
        _assert_failed_fast(cluster, 0, sent)
        assert info.value.retry_after <= 0.4

    def test_healthy_partition_unaffected_by_hung_sibling(self, cluster):
        k0, k1 = _key_for(cluster, 0), _key_for(cluster, 1)
        cluster.put("t", k1, "r1")
        _sigstop(cluster, 0)
        with pytest.raises(PartitionTimeoutError):
            cluster.get("t", k0)
        start = time.monotonic()
        assert cluster.get("t", k1) == ["r1"]
        assert time.monotonic() - start < 0.2

    def test_probe_recovers_hung_partition(self, cluster):
        k0 = _key_for(cluster, 0)
        cluster.put("t", k0, "r0")
        _sigstop(cluster, 0)
        with pytest.raises(PartitionTimeoutError):
            cluster.get("t", k0)
        time.sleep(0.45)  # cooldown elapses; next call is the probe
        assert cluster.get("t", k0) == ["r0"]
        assert cluster._breakers[0].state == BreakerState.CLOSED
        assert cluster.supervisor.restarts == 1

    def test_acked_writes_survive_the_kill(self, cluster):
        """SIGKILLing the hung worker must not lose acked commits."""
        k0 = _key_for(cluster, 0)
        for i in range(5):
            cluster.put("t", k0, f"r{i}")
        _sigstop(cluster, 0)
        with pytest.raises(PartitionTimeoutError):
            cluster.get("t", k0)
        time.sleep(0.45)
        assert sorted(cluster.get("t", k0)) == [
            f"r{i}" for i in range(5)
        ]

    def test_per_call_timeout_overrides_default(self, cluster):
        k0 = _key_for(cluster, 0)
        _sigstop(cluster, 0)
        start = time.monotonic()
        with pytest.raises(PartitionTimeoutError) as info:
            cluster.get("t", k0, timeout=0.1)
        assert time.monotonic() - start < 0.35
        assert info.value.timeout == pytest.approx(0.1)


class TestScatterTimeouts:
    def test_sigstop_mid_scatter_times_out_with_partial_acks(
        self, cluster
    ):
        """A hung leg fails its own deadline; healthy legs still ack."""
        k0, k1 = _key_for(cluster, 0), _key_for(cluster, 1)
        _sigstop(cluster, 0)
        with pytest.raises(PartitionFailedError) as info:
            cluster.apply_batch(
                "t",
                [("put", k0, "x0"), ("put", k1, "x1")],
            )
        assert isinstance(info.value, PartitionTimeoutError)
        # collect-all semantics: the healthy leg's ack is preserved
        acked = info.value.acked
        assert list(acked) == [1]
        assert acked[1]["durable_lsn"] > 0

    def test_scatter_skips_open_breaker_legs_fast(self, cluster):
        k0, k1 = _key_for(cluster, 0), _key_for(cluster, 1)
        _sigstop(cluster, 0)
        with pytest.raises(PartitionTimeoutError):
            cluster.get("t", k0)
        sent = _frames_sent(cluster, 0)
        with pytest.raises(CircuitOpenError) as info:
            cluster.apply_batch(
                "t",
                [("put", k0, "y0"), ("put", k1, "y1")],
            )
        # the open leg fails fast (sends nothing, so waits out no 0.4s
        # deadline), and the healthy leg still committed
        _assert_failed_fast(cluster, 0, sent)
        assert list(info.value.acked) == [1]

    def test_scatter_probe_recovers_after_cooldown(self, cluster):
        k0, k1 = _key_for(cluster, 0), _key_for(cluster, 1)
        _sigstop(cluster, 0)
        with pytest.raises(PartitionTimeoutError):
            cluster.get("t", k0)
        time.sleep(0.45)
        acks = cluster.apply_batch(
            "t", [("put", k0, "z0"), ("put", k1, "z1")]
        )
        assert sorted(acks) == [0, 1]


class TestManifestKnobs:
    def test_rpc_knobs_persist_across_reopen(self, tmp_path):
        from repro.cluster import PartitionedDatabase

        ext = BTreeExtension()
        c = PartitionedDatabase(
            2,
            data_dir=str(tmp_path),
            rpc_timeout=1.5,
            breaker_threshold=5,
            breaker_cooldown=2.5,
        )
        c.create_tree("t", ext)
        c.shutdown()
        c2 = PartitionedDatabase.open(str(tmp_path), {"t": ext})
        try:
            assert c2.rpc_timeout == 1.5
            assert c2.breaker_threshold == 5
            assert c2.breaker_cooldown == 2.5
            assert c2._breakers[0].threshold == 5
        finally:
            c2.shutdown()

    def test_rpc_knobs_overridable_on_reopen(self, tmp_path):
        from repro.cluster import PartitionedDatabase

        ext = BTreeExtension()
        c = PartitionedDatabase(
            2, data_dir=str(tmp_path), rpc_timeout=1.5
        )
        c.create_tree("t", ext)
        c.shutdown()
        c2 = PartitionedDatabase.open(
            str(tmp_path), {"t": ext}, rpc_timeout=0.7
        )
        try:
            assert c2.rpc_timeout == 0.7
        finally:
            c2.shutdown()
