"""Randomized crash-injection battery (experiment C5 in test form)."""

import pytest

from repro.harness.chaos import ChaosHarness


class TestCrashBattery:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_trials_recover(self, seed):
        harness = ChaosHarness()
        result = harness.run_trial(seed, "crash", txns=15)
        assert result.ok, result.errors

    @pytest.mark.parametrize("seed", range(4))
    def test_mid_smo_crash_recovers(self, seed):
        harness = ChaosHarness()
        result = harness.run_trial(
            1000 + seed, "crash", txns=10, crash_mid_smo=True
        )
        assert result.crashed_mid_smo
        assert result.ok, result.errors

    def test_all_uncommitted(self):
        harness = ChaosHarness()
        result = harness.run_trial(
            7, "crash", txns=10, commit_probability=0.0
        )
        assert result.committed_txns == 0
        assert result.ok, result.errors

    def test_all_committed_heavy_flush(self):
        harness = ChaosHarness()
        result = harness.run_trial(
            8,
            "crash",
            txns=10,
            commit_probability=1.0,
            flush_probability=1.0,
        )
        assert result.uncommitted_txns == 0
        assert result.ok, result.errors

    def test_no_flush_at_all(self):
        """Everything must come back from the log alone."""
        harness = ChaosHarness()
        result = harness.run_trial(
            9, "crash", txns=12, flush_probability=0.0
        )
        assert result.ok, result.errors
