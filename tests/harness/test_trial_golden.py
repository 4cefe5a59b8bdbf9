"""Golden rows: seeded trials give recorded answers, not just repeatable ones.

The C5 table was recorded with the separate crash runner that the one
trial skeleton replaced.  Each row is a seed and that
trial's answer; a change to the workload, the fault accounting or the
oracle shows up here as a changed number, not just as a second run
that agrees with the first.  Together they run in about a second.
"""

import pytest

from repro.harness.chaos import ChaosHarness

#: chaos seeds 0-24 under the default fault mix, every 5th also asked
#: to crash inside a split (as the CLI does): seed -> (ok, committed,
#: uncommitted, faults, retries, torn, healed, tail_drop, lost_commits,
#: typed_fail).  Recorded over the one-mutex pool, whose eviction order
#: the rows depend on, with storage faults disarmed before the split.
CHAOS_ROWS = {
    0: (True, 10, 10, 10, 2, 0, 0, 2, 1, 5),
    1: (True, 14, 4, 9, 3, 0, 0, 0, 1, 3),
    2: (True, 12, 3, 13, 1, 0, 0, 0, 1, 9),
    3: (True, 10, 6, 13, 3, 0, 0, 3, 1, 7),
    4: (True, 10, 9, 8, 0, 0, 0, 1, 0, 5),
    5: (True, 13, 3, 9, 2, 1, 1, 0, 0, 4),
    6: (True, 12, 4, 9, 0, 1, 1, 1, 0, 6),
    7: (True, 16, 2, 4, 0, 0, 0, 1, 1, 2),
    8: (True, 15, 5, 7, 0, 0, 0, 0, 1, 4),
    9: (True, 8, 9, 13, 3, 0, 0, 1, 1, 7),
    10: (True, 8, 6, 11, 1, 1, 1, 0, 0, 7),
    11: (True, 13, 6, 4, 0, 0, 0, 3, 1, 1),
    12: (True, 14, 3, 6, 0, 1, 1, 0, 0, 3),
    13: (True, 10, 7, 9, 0, 0, 0, 0, 0, 6),
    14: (True, 14, 6, 2, 0, 0, 0, 1, 1, 0),
    15: (True, 8, 7, 11, 1, 0, 0, 0, 0, 7),
    16: (True, 13, 2, 12, 2, 0, 0, 1, 1, 7),
    17: (True, 9, 8, 9, 2, 0, 0, 2, 1, 4),
    18: (True, 16, 3, 7, 0, 0, 0, 1, 0, 4),
    19: (True, 12, 5, 6, 0, 0, 0, 3, 1, 3),
    20: (True, 13, 3, 11, 0, 0, 0, 0, 0, 8),
    21: (True, 10, 6, 11, 2, 1, 1, 2, 0, 6),
    22: (True, 7, 7, 15, 1, 0, 0, 1, 1, 11),
    23: (True, 12, 8, 7, 1, 1, 1, 0, 1, 3),
    24: (True, 11, 5, 10, 2, 0, 1, 1, 0, 5),
}

#: the C5 battery (benchmarks/bench_claim_recovery.py): seeds 0-19 with
#: 15 transactions, seeds 500-505 with 10 and a crash inside a split:
#: seed -> (ok, committed, uncommitted, mid_smo)
C5_ROWS = {
    0: (True, 7, 8, False),
    1: (True, 11, 4, False),
    2: (True, 13, 2, False),
    3: (True, 9, 6, False),
    4: (True, 9, 6, False),
    5: (True, 12, 3, False),
    6: (True, 11, 4, False),
    7: (True, 14, 1, False),
    8: (True, 12, 3, False),
    9: (True, 8, 7, False),
    10: (True, 10, 5, False),
    11: (True, 9, 6, False),
    12: (True, 12, 3, False),
    13: (True, 9, 6, False),
    14: (True, 11, 4, False),
    15: (True, 8, 7, False),
    16: (True, 13, 2, False),
    17: (True, 7, 8, False),
    18: (True, 12, 3, False),
    19: (True, 10, 5, False),
    500: (True, 8, 2, True),
    501: (True, 7, 3, True),
    502: (True, 6, 4, True),
    503: (True, 6, 4, True),
    504: (True, 8, 2, True),
    505: (True, 5, 5, True),
}


def test_chaos_rows_match_the_recorded_table():
    harness = ChaosHarness()
    found, crashes = {}, {}
    for seed in CHAOS_ROWS:
        r = harness.run_trial(seed, crash_mid_smo=seed % 5 == 0)
        crashes[seed] = r.crash
        found[seed] = (
            r.ok,
            r.committed_txns,
            r.uncommitted_txns,
            r.faults_injected,
            r.io_retries,
            r.torn_pages_detected,
            r.torn_pages_healed,
            r.tail_records_dropped,
            r.lost_commits,
            r.typed_failures,
        )
    assert found == CHAOS_ROWS
    # a trial asked to crash inside a split does, whatever its faults
    assert {s: c for s, c in crashes.items() if s % 5 == 0} == {
        s: "split" for s in CHAOS_ROWS if s % 5 == 0
    }
    assert set(crashes.values()) == {"end", "split"}


@pytest.mark.parametrize("smo", [False, True], ids=["random", "mid-smo"])
def test_c5_battery_matches_the_recorded_table(smo):
    harness = ChaosHarness()
    found, expected = {}, {}
    for seed, row in C5_ROWS.items():
        if (seed >= 500) != smo:
            continue
        r = harness.run_trial(
            seed, "crash", txns=10 if smo else 15, crash_mid_smo=smo
        )
        found[seed] = (
            r.ok, r.committed_txns, r.uncommitted_txns, r.crashed_mid_smo
        )
        expected[seed] = row
    assert found == expected
