"""A guided tour of the write-ahead log and restart recovery.

Performs a tiny workload, prints the log records it generated (the
executable face of the paper's Table 1), crashes the database, and
narrates what the three recovery passes did.

Run:  python examples/wal_tour.py
"""

from __future__ import annotations

from repro import BTreeExtension, Database, Interval
from repro.tools.inspect import dump_stats
from repro.wal.recovery import RestartRecovery


def main() -> None:
    db = Database(page_capacity=4)
    tree = db.create_tree("demo", BTreeExtension())

    # enough inserts to force a root split and a node split
    txn = db.begin()
    for i in range(10):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    # a logical delete
    txn = db.begin()
    tree.delete(txn, 3, "r3")
    db.commit(txn)
    # and a loser: in flight at the crash
    loser = db.begin()
    tree.insert(loser, 99, "doomed")
    db.log.flush()

    print("=== the log (Table 1 in action) ===")
    counts: dict[str, int] = {}
    for record in db.log.records_from(1):
        counts[record.type_name()] = counts.get(record.type_name(), 0) + 1
    width = max(len(n) for n in counts)
    for name, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<{width}}  x{n}")

    print("\n=== crash ===")
    print("buffer pool dropped; unflushed log tail dropped")
    db.crash()

    print("\n=== restart recovery (ARIES three-pass, section 9) ===")
    db2 = Database(store=db.store, log=db.log, page_capacity=4)
    report = RestartRecovery(db2, {"demo": BTreeExtension()}).run()
    print(f"  analysis: scanned {report.analyzed_records} records, "
          f"found trees {report.trees}, losers {report.losers}")
    print(f"  redo:     from LSN {report.redo_start_lsn}, "
          f"re-applied {report.redone_records} records, "
          f"rebuilt {report.pages_rebuilt} never-flushed pages, "
          f"read {report.pages_read} and wrote {report.pages_written}")
    print(f"  undo:     rolled back {report.undone_records} records "
          f"of {len(report.losers)} loser transaction(s)")

    tree2 = db2.tree("demo")
    txn = db2.begin()
    rows = sorted(tree2.search(txn, Interval(0, 100)))
    db2.commit(txn)
    print("\n=== recovered contents ===")
    print(" ", rows)
    assert (3, "r3") not in rows, "committed delete lost"
    assert (99, "doomed") not in rows, "loser insert survived"
    assert len(rows) == 9
    print("\ncommitted work preserved, loser rolled back ✓")

    print("\n=== clean shutdown, then restart again ===")
    db2.shutdown()  # checkpoint with an empty dirty page table
    db2.crash()
    db3 = db2.restart({"demo": BTreeExtension()})
    clean = db3.recovery_report
    print(f"  analysis: from the checkpoint's begin LSN "
          f"{clean.checkpoint_begin_lsn}, dirty page table empty")
    print(f"  redo:     from LSN {clean.redo_start_lsn}, "
          f"read {clean.pages_read} pages, wrote {clean.pages_written}, "
          f"re-applied {clean.redone_records} records")
    assert (clean.pages_read, clean.pages_written) == (0, 0)
    print("restart cost what the crash left dirty: nothing ✓")

    # the recovered database carries full instrumentation too: the
    # recovery passes themselves were timed (recovery.*_ns)
    print("\n=== observability: db2.metrics (dump_stats) ===")
    print(dump_stats(db2))


if __name__ == "__main__":
    main()
