"""Group commit: commit throughput under a slow log device.

Not a claim from the GiST paper itself, but the standard WAL companion
(the paper's host, DB2, relies on it): with a per-force latency, commit
throughput is bounded by forces per second unless concurrent committers
share forces.  The experiment drives N committer threads against a log
with a 3 ms force latency and reports commits, physical forces, and the
share that rode along.  The committing thread forces the log itself;
riders whose cover is overtaken by an in-flight force skip theirs
(leader/rider group commit).

Gate: with 8 committers the log must average **fewer than one physical
force per commit** (flushes/commit < 1.0), i.e. batching must actually
happen.

``BENCH_group_commit.json`` receives the machine-readable matrix.
"""

from __future__ import annotations

import threading
import time

from repro.database import Database
from repro.ext.btree import BTreeExtension

FLUSH_DELAY = 0.003
COMMITS_PER_THREAD = 12


def run(threads: int) -> dict:
    db = Database(page_capacity=16, flush_delay=FLUSH_DELAY)
    tree = db.create_tree("gc", BTreeExtension())

    def worker(wid: int):
        for i in range(COMMITS_PER_THREAD):
            txn = db.begin()
            tree.insert(txn, wid * 1000 + i, f"{wid}-{i}")
            db.commit(txn)

    workers = [
        threading.Thread(target=worker, args=(w,), daemon=True) for w in range(threads)
    ]
    before = db.log.stats.snapshot()  # exclude create_tree's forces
    start = time.perf_counter()
    for t in workers:
        t.start()
    for t in workers:
        t.join(120.0)
    elapsed = time.perf_counter() - start
    after = db.log.stats.snapshot()  # before shutdown's final flush
    db.shutdown()
    commits = threads * COMMITS_PER_THREAD
    flushes = after["flushes"] - before["flushes"]
    rode_along = after["group_commits"] - before["group_commits"]
    return {
        "threads": threads,
        "commits": commits,
        "commits_per_sec": round(commits / elapsed, 1),
        "log_forces": flushes,
        "rode_along": rode_along,
        "commits_per_force": round(commits / max(1, flushes), 2),
        "flushes_per_commit": round(flushes / commits, 3),
    }


def test_group_commit_scaling(benchmark, emit, emit_json):
    rows = []

    def go():
        rows.clear()
        for threads in (1, 4, 8):
            rows.append(run(threads))

    benchmark.pedantic(go, rounds=1, iterations=1)
    emit(
        "Group commit — commit throughput vs committer threads "
        f"(log force latency {FLUSH_DELAY * 1e3:.0f} ms)",
        rows,
    )
    emit_json(
        "group_commit",
        {
            "flush_delay_ms": FLUSH_DELAY * 1e3,
            "commits_per_thread": COMMITS_PER_THREAD,
            "matrix": rows,
        },
    )
    by_threads = {r["threads"]: r for r in rows}
    # concurrency amortizes forces: more commits per physical force
    assert (
        by_threads[8]["commits_per_force"]
        > by_threads[1]["commits_per_force"]
    )
    assert (
        by_threads[8]["commits_per_sec"] > by_threads[1]["commits_per_sec"]
    )
    # batching must actually happen: strictly fewer than one physical
    # force per commit at 8 committers
    assert by_threads[8]["flushes_per_commit"] < 1.0, (
        "group commit failed to coalesce: "
        f"{by_threads[8]['flushes_per_commit']} flushes/commit"
    )
    # and a lone committer forces exactly once per commit
    assert by_threads[1]["flushes_per_commit"] <= 1.0
