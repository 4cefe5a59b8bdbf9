"""Failed chaos trials ship a replayable flight-recorder black box."""

import os
from unittest import mock

from repro.database import Database
from repro.faults import FaultKind
from repro.harness.chaos import ChaosHarness
from repro.obs.export import canonical_events, load_jsonl


class _BrokenOracleHarness(ChaosHarness):
    """Test-only: misreport every commit LSN as beyond the log's end,
    so the oracle's expected contents are wrong and any trial with
    surviving commits fails."""

    def run_trial(self, *args, **kwargs):
        real = Database.commit
        with mock.patch.object(
            Database, "commit", lambda db, txn: real(db, txn) + 10**9
        ):
            return super().run_trial(*args, **kwargs)


#: a quiet fault mix (no WAL-tail loss) so commits always survive and
#: the broken oracle reliably produces a content mismatch
QUIET = frozenset({FaultKind.TRANSIENT_READ})


class TestBlackboxOnFailure:
    def test_failed_trial_dumps_and_embeds_path(self, tmp_path):
        harness = _BrokenOracleHarness(
            kinds=QUIET, blackbox_dir=str(tmp_path)
        )
        result = harness.run_trial(3, txns=8)
        assert not result.ok
        assert result.blackbox_path is not None
        assert result.blackbox_path.startswith(str(tmp_path))
        assert os.path.exists(result.blackbox_path)
        # the result embeds the dump path and the last-events tail
        blackbox_errors = [
            e for e in result.errors if e.startswith("blackbox: ")
        ]
        assert len(blackbox_errors) == 1
        assert result.blackbox_path in blackbox_errors[0]
        assert "last events:" in blackbox_errors[0]
        assert "db.recovered" in blackbox_errors[0]

    def test_dump_holds_the_precrash_story(self, tmp_path):
        harness = _BrokenOracleHarness(
            kinds=QUIET, blackbox_dir=str(tmp_path)
        )
        result = harness.run_trial(3, txns=8)
        names = [e["name"] for e in load_jsonl(result.blackbox_path)]
        assert "txn.commit" in names  # pre-crash events survived
        assert "db.crash" in names
        assert "db.recovered" in names

    def test_passing_trial_ships_no_blackbox(self, tmp_path):
        harness = ChaosHarness(kinds=QUIET, blackbox_dir=str(tmp_path))
        result = harness.run_trial(3, txns=8)
        assert result.ok
        assert result.blackbox_path is None
        assert os.listdir(str(tmp_path)) == []


class TestReplayDeterminism:
    def test_same_seed_replays_bit_for_bit(self, tmp_path):
        """Acceptance: the black box of a failed seeded trial replays
        to the same canonical event sequence on a second run."""
        dumps = []
        for run in ("a", "b"):
            directory = str(tmp_path / run)
            harness = _BrokenOracleHarness(
                kinds=QUIET, blackbox_dir=directory, protocol_checks=True
            )
            result = harness.run_trial(3, txns=8)
            assert not result.ok
            dumps.append(load_jsonl(result.blackbox_path))
        assert canonical_events(dumps[0]) == canonical_events(dumps[1])
        # and the raw dumps differ only in the nondeterministic fields
        assert len(dumps[0]) == len(dumps[1])

    def test_faulty_seeds_replay_bit_for_bit(self, tmp_path):
        """Same, under the full fault mix (storage + WAL-tail faults)."""
        seed = 1
        dumps = []
        for run in ("a", "b"):
            directory = str(tmp_path / run)
            harness = _BrokenOracleHarness(blackbox_dir=directory)
            result = harness.run_trial(seed, txns=10)
            if result.blackbox_path is None:
                # broken oracle did not trip (no surviving commits);
                # the determinism claim is then vacuous for this seed
                return
            dumps.append(load_jsonl(result.blackbox_path))
        assert canonical_events(dumps[0]) == canonical_events(dumps[1])
