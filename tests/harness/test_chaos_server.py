"""Chaos serving trials: whole-server SIGKILL + commit-LSN oracle."""

import pytest

from repro.harness.chaos import ChaosHarness


@pytest.mark.parametrize("seed", [1, 7])
def test_server_trial_oracle_holds(seed):
    harness = ChaosHarness()
    result = harness.run_trial(
        seed, "server", partitions=2, batches=20, batch_size=3
    )
    assert result.ok, result.errors


def test_server_trial_commits_before_the_kill():
    harness = ChaosHarness()
    result = harness.run_trial(
        11, "server", partitions=2, batches=20, batch_size=3
    )
    assert result.ok, result.errors
    # the kill is seeded to land mid-load: some batches must have been
    # acknowledged before it, or the oracle verified an empty run
    assert result.committed_txns > 0
