"""Worker death and resurrection: SIGKILL, detection, shadow recovery."""

import pytest

from repro.cluster import PartitionedDatabase
from repro.errors import PartitionFailedError
from repro.ext.btree import BTreeExtension, Interval
from repro.harness.chaos import ChaosHarness


@pytest.fixture
def cluster():
    cluster = PartitionedDatabase(3, router="hash", page_capacity=16)
    cluster.create_tree("t", BTreeExtension())
    try:
        yield cluster
    finally:
        cluster.shutdown()


class TestKillRecover:
    def test_acked_commits_survive_sigkill(self, cluster):
        cluster.multi_put("t", [(i, f"r{i}") for i in range(200)])
        cluster.kill_partition(1)
        info = cluster.recover_partition(1)
        assert info["recovered"] is not None
        assert info["recovered"]["redone"] > 0
        rows = cluster.search("t", Interval(0, 200))
        assert [k for k, _ in rows] == list(range(200))

    def test_death_detected_and_auto_recovered_on_next_op(self, cluster):
        cluster.multi_put("t", [(i, f"r{i}") for i in range(100)])
        cluster.kill_partition(2)
        # ops keep flowing; each either succeeds (other partitions) or
        # fails once with PartitionFailedError while recovery runs
        failures = 0
        for key in range(100, 160):
            try:
                cluster.put("t", key, f"late{key}")
            except PartitionFailedError as exc:
                assert exc.partition == 2
                failures += 1
        assert failures >= 1  # the victim was hit at least once
        assert cluster.supervisor.restarts == 1
        # after recovery everything routes again, nothing acked is lost
        rows = cluster.search("t", Interval(0, 100))
        assert [k for k, _ in rows] == list(range(100))

    def test_scatter_failure_carries_acked_legs(self, cluster):
        cluster.multi_put("t", [(i, f"r{i}") for i in range(60)])
        cluster.kill_partition(0)
        with pytest.raises(PartitionFailedError) as info:
            cluster.apply_batch(
                "t", [("put", k, f"x{k}") for k in range(60, 90)]
            )
        acked = info.value.acked
        assert 0 not in acked
        for partition, ack in acked.items():
            assert ack["commit_lsn"] > 0
        # acked legs are durable: their keys are present after the dust
        # settles; the victim's leg is "maybe" (here: absent, since the
        # worker died before the request was sent)
        survivors = {
            k
            for k, _ in cluster.search("t", Interval(60, 89))
        }
        expected_from_acked = {
            k
            for k in range(60, 90)
            if cluster.router.partition_of(k) in acked
        }
        assert expected_from_acked <= survivors

    def test_unaffected_partitions_never_blocked(self, cluster):
        cluster.multi_put("t", [(i, f"r{i}") for i in range(50)])
        cluster.kill_partition(1)
        for key in range(50, 200):
            if cluster.router.partition_of(key) != 1:
                cluster.put("t", key, f"r{key}")
                break
        else:  # pragma: no cover - hash covers all partitions
            pytest.fail("no key routed away from the victim")

    def test_repeated_kill_recover_cycles(self, cluster):
        for round_no in range(3):
            base = round_no * 40
            cluster.multi_put(
                "t", [(base + i, f"r{base + i}") for i in range(40)]
            )
            victim = round_no % cluster.partitions
            cluster.kill_partition(victim)
            cluster.recover_partition(victim)
        rows = cluster.search("t", Interval(0, 120))
        assert [k for k, _ in rows] == list(range(120))
        assert cluster.supervisor.restarts == 3


class TestPartitionChaosTrial:
    def test_partition_trial_passes_oracle(self):
        harness = ChaosHarness()
        result = harness.run_trial(7, "partition", batches=16)
        assert result.errors == []
        assert result.ok
        assert result.killed_partition >= 0
        assert result.partition_restarts >= 1
        assert result.recovered_ok

    def test_partition_trials_across_seeds(self):
        harness = ChaosHarness()
        for seed in range(3):
            result = harness.run_trial(
                seed, "partition", partitions=2, batches=12, batch_size=6
            )
            assert result.ok, result.errors
