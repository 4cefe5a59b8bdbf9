"""Chaos batch trials: crashing mid-bulk_load and mid-multi_put."""

import pytest

from repro.harness.chaos import BATCH_CRASH_POINTS, ChaosHarness


class TestBatchTrials:
    def test_seeded_trials_pass(self):
        harness = ChaosHarness(protocol_checks=True)
        for seed in range(6):
            result = harness.run_trial(seed, "batch")
            assert result.ok, f"seed {seed}: {result.errors}"
            assert result.crash in BATCH_CRASH_POINTS, result.crash

    @pytest.mark.parametrize("crash_point", BATCH_CRASH_POINTS)
    def test_every_crash_point_recovers(self, crash_point):
        # pin the crash point; the crash must land there, and the oracle
        # (commit-LSN cut + tree check + contents) must hold wherever the
        # batch dies
        harness = ChaosHarness(protocol_checks=True)
        for seed in (1, 4):
            result = harness.run_trial(seed, "batch", crash_point=crash_point)
            assert result.crash == crash_point, (
                f"{crash_point} seed {seed}: crash landed at {result.crash}"
            )
            assert result.ok, (
                f"{crash_point} seed {seed}: {result.errors}"
            )

    def test_trial_reports_crash_metadata(self):
        harness = ChaosHarness()
        result = harness.run_trial(2, "batch")
        assert result.ok
        assert result.seed == 2
        assert result.kind == "batch"

    def test_same_seed_is_deterministic(self):
        harness = ChaosHarness()
        a = harness.run_trial(7, "batch")
        b = harness.run_trial(7, "batch")
        assert a.ok and b.ok
        assert a.committed_txns == b.committed_txns
        assert a.uncommitted_txns == b.uncommitted_txns
        assert a.crash == b.crash

    def test_a_crash_that_never_fires_fails_the_trial(self, monkeypatch):
        # with the hook never firing, the trial runs to its end: that
        # must be an error, not a pass
        from repro.sync.hooks import Hooks

        monkeypatch.setattr(Hooks, "fire", lambda self, point, **ctx: None)
        result = ChaosHarness().run_trial(
            1, "batch", crash_point="multi_put:run"
        )
        assert result.crash == "end"
        assert not result.ok
        assert any("never fired" in e for e in result.errors), result.errors
