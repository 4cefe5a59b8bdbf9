"""Claim C5: restart recovery restores consistency from any crash.

A battery of seeded crash trials (random committed/uncommitted mixes,
random flush points, optional crash inside a structure modification);
every trial must recover to a structurally consistent tree containing
exactly the committed work.  The second table measures recovery time
and work — records redone, pages read and written — as a function of
log length: without a checkpoint, with one halfway, and after a clean
shutdown (flush everything, then checkpoint), where restart must touch
no page at all.

``BENCH_QUICK=1`` skips the 320-transaction rows for CI smoke runs; the
clean-shutdown 0/0 gate then runs at 80 transactions.
"""

from __future__ import annotations

import os
import time

from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.harness.chaos import ChaosHarness, trial_rows

QUICK = bool(os.environ.get("BENCH_QUICK"))
TRIALS = 20
SMO_TRIALS = 6


def test_c5_crash_battery(benchmark, emit):
    harness = ChaosHarness()
    rows = []
    results = []

    def run():
        rows.clear()
        results.clear()
        ok = 0
        for seed in range(TRIALS):
            result = harness.run_trial(seed, "crash", txns=15)
            results.append(result)
            ok += result.ok
        rows.append(
            {
                "kind": "random crash",
                "trials": TRIALS,
                "recovered_ok": ok,
            }
        )
        ok = interrupted = 0
        for seed in range(SMO_TRIALS):
            result = harness.run_trial(
                500 + seed, "crash", txns=10, crash_mid_smo=True
            )
            results.append(result)
            ok += result.ok
            interrupted += result.crashed_mid_smo
        rows.append(
            {
                "kind": "crash inside split SMO",
                "trials": SMO_TRIALS,
                "recovered_ok": ok,
            }
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit("C5 — crash/recovery battery (committed == recovered)", rows)
    failed = [r for r in results if not r.ok]
    if failed:
        # surface per-trial diagnostics (seed + first error), not just
        # the aggregate count, so a failing seed is actionable from the
        # CI log
        emit("C5 — failing trials", trial_rows(failed))
    assert all(r["recovered_ok"] == r["trials"] for r in rows)


def recovery_time(txns: int, checkpoint: str) -> dict:
    """One build → crash → restart; ``checkpoint`` is ``"no"``,
    ``"halfway"`` (flush + checkpoint after half the transactions) or
    ``"shutdown"`` (flush + checkpoint after the last one)."""
    db = Database(page_capacity=8)
    tree = db.create_tree("t", BTreeExtension())
    for t in range(txns):
        txn = db.begin()
        for i in range(10):
            tree.insert(txn, t * 100 + i, f"{t}-{i}")
        db.commit(txn)
        if checkpoint == "halfway" and t == txns // 2:
            db.pool.flush_all()
            db.checkpoint()
    if checkpoint == "shutdown":
        db.shutdown()
    log_records = db.log.end_lsn
    db.crash()
    start = time.perf_counter()
    report = db.restart({"t": BTreeExtension()}).recovery_report
    elapsed = time.perf_counter() - start
    return {
        "txns": txns,
        "checkpoint": checkpoint,
        "log_records": log_records,
        "redo_start": report.redo_start_lsn,
        "redone": report.redone_records,
        "pages_read": report.pages_read,
        "pages_written": report.pages_written,
        "recovery_ms": round(elapsed * 1e3, 1),
    }


def test_c5_recovery_time_vs_log_length(benchmark, emit):
    rows = []
    sizes = (20, 80) if QUICK else (20, 80, 320)

    def run():
        rows.clear()
        for txns in sizes:
            rows.append(recovery_time(txns, "no"))
        rows.append(recovery_time(sizes[-1], "halfway"))
        rows.append(recovery_time(sizes[-1], "shutdown"))

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit("C5b — recovery time vs log length (and checkpoint effect)", rows)
    *no_cp, halfway, shutdown = rows
    # recovery work grows with the log; a checkpoint truncates the redo
    assert no_cp[-1]["redone"] > no_cp[0]["redone"]
    assert halfway["redo_start"] > no_cp[-1]["redo_start"]
    assert halfway["redone"] < no_cp[-1]["redone"]
    # ... and bounds the I/O: only pages dirtied since are read (the
    # uncheckpointed runs never flushed, so they read none and rebuild
    # every page) or written; after a clean shutdown none is either
    assert halfway["pages_written"] < no_cp[-1]["pages_written"]
    assert (shutdown["pages_read"], shutdown["pages_written"]) == (0, 0)
    assert shutdown["redone"] == 0
