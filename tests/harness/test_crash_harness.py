"""The fault-free crash trial: result plumbing and oracle correctness."""

import pytest

from repro.harness.chaos import ChaosHarness, TrialResult


class TestTrialResult:
    def test_ok_requires_all_three(self):
        result = TrialResult(seed=0)
        assert not result.ok
        result.recovered_ok = True
        result.contents_match = True
        assert not result.ok
        result.structure_ok = True
        assert result.ok

    def test_any_error_fails_the_verdict(self):
        # one verdict for the CLI and result.ok: a protocol violation or
        # a crash that never fired fails the trial like a mismatch does
        result = TrialResult(
            seed=0, recovered_ok=True, contents_match=True, structure_ok=True
        )
        result.errors.append("protocol[runtime]: latch held across lock wait")
        assert not result.ok


class TestHarnessKnobs:
    def test_commit_probability_zero(self):
        harness = ChaosHarness()
        result = harness.run_trial(
            3, "crash", txns=6, commit_probability=0.0
        )
        assert result.committed_txns == 0
        assert result.uncommitted_txns > 0
        assert result.ok, result.errors

    def test_commit_probability_one(self):
        harness = ChaosHarness()
        result = harness.run_trial(
            3, "crash", txns=6, commit_probability=1.0
        )
        assert result.uncommitted_txns == 0
        assert result.ok, result.errors

    def test_mid_smo_flag_reported(self):
        harness = ChaosHarness()
        result = harness.run_trial(7, "crash", txns=5, crash_mid_smo=True)
        assert result.crashed_mid_smo
        assert result.crash == "split"
        assert result.ok, result.errors

    def test_small_pages_exercise_deep_trees(self):
        harness = ChaosHarness(page_capacity=4)
        result = harness.run_trial(11, "crash", txns=10)
        assert result.ok, result.errors

    def test_crash_trials_inject_no_faults(self):
        result = ChaosHarness().run_trial(5, "crash")
        assert result.kind == "crash"
        assert result.fault_log == [] and result.faults_injected == 0

    def test_unknown_settings_and_kinds_are_rejected(self):
        harness = ChaosHarness()
        with pytest.raises(TypeError):
            harness.run_trial(1, "batch", txns=5)
        with pytest.raises(ValueError):
            harness.run_trial(1, "meteor")
