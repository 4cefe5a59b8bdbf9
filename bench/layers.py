"""Per-layer metrics of the traced run, the ladder and the build-path probe.

Three sources, kept apart because they repeat differently:

* **count blocks** — single-thread blocks of one op type; deltas of the
  program's documented counters (``db.metrics.snapshot()``,
  ``db.stats()``, ``ReproClient.stats()``) and of the timing
  extension's call counts.  Same seed → the same numbers, exactly.
  "Per op" figures weight each op type by its share of the workload's
  mix.
* **the traced segment** — the workload's own mix (and thread count)
  replayed with the span wrappers on: self times, busy times and the
  contention counters (waits, deadlocks, restarts), which only move
  when threads meet and so vary from run to run on 2-thread workloads.
* **the plain segment** — the same ops without wrappers: the tracing
  overhead and the latencies that are not end-to-end metrics.
"""

from __future__ import annotations

import os
from dataclasses import replace

from engine import Round, Tally, delta, drive
from spans import END, NAME, START, totals
from stats import median, percentile
from targets import (
    PRELOAD_TXN,
    ClusterTarget,
    EmbeddedTarget,
    ServedTarget,
    awake_cores,
)
from workloads import (
    INGEST_BATCH,
    LADDER,
    MULTI,
    Spec,
    generate_round,
)

#: metrics that are 0 outside the one traced run that measures them
LADDER_METRICS = [
    f"{rung}.{kind}_p50_us"
    for rung in ("database", "cluster.p1", "cluster.p2")
    for kind in ("get", "insert", "scan")
] + [
    f"{layer}.tax_{kind}_us"
    for layer in ("cluster", "server")
    for kind in ("get", "insert", "scan")
] + ["cluster.recover_partition_s"]
PROBE_METRICS = [
    f"gist.{what}.{build}"
    for what in ("fixes_per_get", "pages_per_kkey")
    for build in ("insert_built", "multi_put_built", "bulk_load_built")
]


#: from the count blocks alone: the same seed gives the same value, to
#: the last digit, on every workload (bench/tests pins this)
EXACT_COUNTS = (
    "ext.calls_per_op",
    "ext.consistent_calls_per_op",
    "ext.penalty_calls_per_op",
    "ext.union_calls_per_op",
    "ext.pick_split_calls_per_kop",
    "gist.fixes_per_get",
    "gist.fixes_per_insert",
    "gist.fixes_per_scan",
    "gist.splits_per_kinsert",
    "lock.acquires_per_op",
    "predicate.attaches_per_op",
    "predicate.comparisons_per_op",
    "wal.appends_per_insert",
    "wal.appends_per_get",
    "wal.flushes_per_op",
    "storage.hit_rate",
    "storage.misses_per_op",
    "storage.evictions_per_op",
    "storage.reads",
    "storage.writes",
    "sync.latch_acquisitions_per_op",
)


def _fixes(counters: dict) -> float:
    return counters.get("buffer.hits", 0) + counters.get("buffer.misses", 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ops_per_s(rounds: list) -> float:
    """Σ over driver threads of the median block rate (all rounds)."""
    by_thread: dict = {}
    for r in rounds:
        for tally in r.threads():
            by_thread.setdefault(tally.thread, []).extend(tally.rates)
    return sum(median(rates) for rates in by_thread.values() if rates)


def p50_us(samples: list) -> float:
    return percentile(samples, 50.0) / 1e3 if samples else 0.0


def layer_metrics(
    spec: Spec, plain: Round, traced: Round, ladder=None, probe=None
) -> dict:
    """Every per-layer metric of BENCHMARK.json, by name."""
    m: dict = {}
    mix = {kind: pct / 100.0 for kind, pct in spec.mix.items()}
    blocks = traced.blocks
    write = "insert" if "insert" in mix else "multi_put"
    keys_per_write = 1 if write == "insert" else MULTI

    def per_op(kind: str, counter) -> float:
        block = blocks[kind]
        value = (
            counter(block["delta"])
            if callable(counter)
            else block["delta"].get(counter, 0)
        )
        return value / block["n"]

    def weighted(counter) -> float:
        return sum(share * per_op(kind, counter) for kind, share in mix.items())

    # -- the traced segment: spans ------------------------------------
    window = [
        spans
        for since, until, _ in traced.segments
        for spans in traced.rec.window(since, until)
    ]
    tot = totals(window)
    op_spans = tot.get("op", {"spans": 0, "dur_ns": 0})
    n_ops = op_spans["spans"] or 1
    op_wall = op_spans["dur_ns"] or 1

    def span_mean_us(name: str, what: str = "dur_ns") -> float:
        row = tot.get(name)
        return row[what] / row["spans"] / 1e3 if row else 0.0

    # -- ext -----------------------------------------------------------
    block_ext = {
        kind: totals(block["spans"]) for kind, block in blocks.items()
    }

    def ext_per_op(method: str | None) -> float:
        total = 0.0
        for kind, share in mix.items():
            calls = sum(
                row["calls"]
                for name, row in block_ext[kind].items()
                if name.startswith("ext.")
                and (method is None or name == "ext." + method)
            )
            total += share * calls / blocks[kind]["n"]
        return total

    ext_busy = sum(
        row["dur_ns"] for name, row in tot.items() if name.startswith("ext.")
    )
    m["ext.calls_per_op"] = ext_per_op(None)
    m["ext.consistent_calls_per_op"] = ext_per_op("consistent")
    m["ext.penalty_calls_per_op"] = ext_per_op("penalty")
    m["ext.union_calls_per_op"] = ext_per_op("union")
    m["ext.pick_split_calls_per_kop"] = 1e3 * ext_per_op("pick_split")
    m["ext.busy_us_per_op"] = ext_busy / n_ops / 1e3
    m["ext.share_of_op"] = ext_busy / op_wall

    # -- gist ----------------------------------------------------------
    m["gist.search_self_us"] = span_mean_us("gist.search", "self_ns")
    m["gist.insert_self_us"] = span_mean_us("gist.insert", "self_ns")
    m["gist.delete_self_us"] = span_mean_us("gist.delete", "self_ns")
    m["gist.multi_put_p50_us"] = p50_us(
        [
            span[END] - span[START]
            for spans in window
            for span in spans
            if span[NAME] == "gist.multi_put"
        ]
    )
    m["gist.fixes_per_get"] = per_op("get", _fixes)
    m["gist.fixes_per_insert"] = per_op(write, _fixes)
    m["gist.fixes_per_scan"] = per_op("scan", _fixes)
    m["gist.splits_per_kinsert"] = (
        1e3 * per_op(write, "gist.splits") / keys_per_write
    )
    m["gist.height"], pages = traced.shape
    m["gist.pages_per_kkey"] = 1e3 * _ratio(pages, traced.live_keys)
    m["gist.vacuum_s"] = traced.vacuum_s
    m["gist.delete_p50_us"] = p50_us(plain.samples("delete"))
    m["gist.multi_get_p50_us"] = p50_us(plain.samples("multi_get"))
    ingest = plain.samples("ingest", role="ingest")
    m["gist.ingest_keys_per_s"] = _ratio(
        len(ingest) * INGEST_BATCH * 1e9, sum(ingest)
    )

    # -- contention and waits: the traced segment's counter deltas -----
    seg: dict = {}
    for _, _, counted in traced.segments:
        for name, value in counted.items():
            seg[name] = seg.get(name, 0) + value
    m["gist.rightlink_follows_per_kop"] = (
        1e3 * seg.get("gist.rightlink_follows", 0) / n_ops
    )
    m["gist.nsn_restarts_per_kop"] = (
        1e3 * seg.get("gist.restarts.nsn_mismatch", 0) / n_ops
    )
    m["lock.acquires_per_op"] = weighted("lock.acquires")
    m["lock.waits_per_kop"] = 1e3 * seg.get("lock.waits", 0) / n_ops
    m["lock.wait_us_per_op"] = seg.get("lock.wait_ns.sum", 0) / n_ops / 1e3
    m["lock.deadlocks"] = seg.get("lock.deadlocks", 0)
    m["predicate.attaches_per_op"] = weighted("predicate.attaches")
    m["predicate.comparisons_per_op"] = weighted("predicate.comparisons")
    m["predicate.blocks_per_kop"] = (
        1e3 * seg.get("gist.predicate_blocks", 0) / n_ops
    )

    # -- txn -----------------------------------------------------------
    m["txn.begin_us"] = span_mean_us("txn.begin")
    m["txn.commit_us"] = span_mean_us("txn.commit")
    m["txn.share_of_op"] = (
        sum(
            tot.get(name, {"dur_ns": 0})["dur_ns"]
            for name in ("txn.begin", "txn.commit", "txn.rollback")
        )
        / op_wall
    )
    m["txn.retries_per_kop"] = 1e3 * traced.retries / n_ops

    # -- wal -----------------------------------------------------------
    m["wal.appends_per_insert"] = per_op(write, "wal.appends")
    m["wal.appends_per_get"] = per_op("get", "wal.appends")
    m["wal.flushes_per_op"] = weighted("wal.flushes")
    m["wal.flush_us_per_op"] = seg.get("wal.flush_ns.sum", 0) / n_ops / 1e3
    m["wal.commits_per_flush"] = _ratio(
        seg.get("txn.committed", 0), seg.get("wal.flushes", 0)
    )
    report = traced.report
    analyzed = report.analyzed_records if report else 0
    m["wal.recovery.analyzed"] = analyzed
    m["wal.recovery.redone"] = report.redone_records if report else 0
    m["wal.recovery.undone"] = report.undone_records if report else 0
    m["wal.recovery_s"] = traced.recovery_s
    m["wal.recovery_us_per_krecord"] = _ratio(
        traced.recovery_s * 1e6, analyzed / 1e3
    )

    # -- storage and latches -------------------------------------------
    misses = weighted("buffer.misses")
    m["storage.hit_rate"] = 1.0 - _ratio(misses, weighted(_fixes))
    m["storage.misses_per_op"] = misses
    m["storage.evictions_per_op"] = weighted("buffer.evictions")
    m["storage.io_read_us_per_op"] = (
        seg.get("buffer.io_read_ns.sum", 0) / n_ops / 1e3
    )
    m["storage.io_write_us_per_op"] = (
        seg.get("buffer.io_write_ns.sum", 0) / n_ops / 1e3
    )
    m["storage.reads"] = sum(b["delta"].get("io.reads", 0) for b in blocks.values())
    m["storage.writes"] = sum(
        b["delta"].get("io.writes", 0) for b in blocks.values()
    )
    m["sync.latch_acquisitions_per_op"] = weighted("latch.acquisitions")
    # latch waits are sampled (1 acquisition in 16 is timed): scale the
    # sampled sum by acquisitions per timed sample
    m["sync.latch_wait_us_per_op"] = (
        seg.get("latch.wait_ns.sum", 0)
        * _ratio(seg.get("latch.acquisitions", 0), seg.get("latch.wait_ns.count", 0))
        / n_ops
        / 1e3
    )

    # -- server (this workload's own server; 0 when there is none) -----
    m["server.queue_wait_ms"] = max(
        traced.counters.get(f"server.queue.{klass}.ema_wait_ms", 0.0)
        for klass in ("point", "scan")
    )
    for what in ("rejected", "shed"):
        m[f"server.{what}_per_kop"] = (
            1e3
            * sum(
                value
                for name, value in seg.items()
                if name.startswith(f"server.{what}.")
            )
            / n_ops
        )

    # -- measured once, in one workload's traced run -------------------
    for name in LADDER_METRICS:
        m[name] = ladder[name] if ladder else 0.0
    for name in PROBE_METRICS:
        m[name] = probe[name] if probe else 0.0

    m["trace.overhead_ratio"] = _ratio(ops_per_s([traced]), ops_per_s([plain]))
    # demoted from the end-to-end metrics (spread over its bound); at a
    # tenth of the ops it has fewer than ten samples beyond it on the
    # smaller workloads, so read it with the sample count in mind
    m["op_p99_us"] = percentile(plain.all_samples(), 99.0) / 1e3
    return m


# ----------------------------------------------------------------------
# the ladder: one op stream at the database, cluster and server rungs
# ----------------------------------------------------------------------
def run_ladder(root: str, seed: int, n_ops: int, preload: int, tmp: str):
    """``(metrics, tallies)``; called from served_btree's traced run."""
    spec = replace(LADDER, preload=preload)
    inputs = generate_round(spec, seed, 0, n_ops, False)
    ops = inputs.thread_ops[0]
    p50: dict = {}
    tallies = []
    metrics: dict = {}

    def rung(name: str, target, tree: str) -> None:
        try:
            target.preload([(tree, inputs.preload[0][1])])
            tally = Tally()
            drive(target.runner(0, tree), ops, tally)
            if name == "cluster.p2":
                metrics["cluster.recover_partition_s"] = (
                    target.recover_partition()
                )
            check = Tally(role="check", attempted=1)
            for problem in target.verify(
                {tree: inputs.live["t0"]}, inputs.everything
            ):
                check.fail(f"ladder {name}: {problem}")
        finally:
            target.close()
        tallies.extend([tally, check])
        p50[name] = {
            kind: p50_us(tally.samples.get(kind, []))
            for kind in ("get", "insert", "scan")
        }

    # every rung under the conditions the served one is measured in
    with awake_cores():
        rung("database", EmbeddedTarget(spec, ["t0"]), "t0")
        for n in (1, 2):
            rung(
                f"cluster.p{n}",
                ClusterTarget(n, os.path.join(tmp, f"ladder-p{n}")),
                ClusterTarget.TREE,
            )
    rung("server", ServedTarget(root), ServedTarget.TREE)

    for kind in ("get", "insert", "scan"):
        for name in ("database", "cluster.p1", "cluster.p2"):
            metrics[f"{name}.{kind}_p50_us"] = p50[name][kind]
        metrics[f"cluster.tax_{kind}_us"] = (
            p50["cluster.p1"][kind] - p50["database"][kind]
        )
        metrics[f"server.tax_{kind}_us"] = (
            p50["server"][kind] - p50["database"][kind]
        )
    return metrics, tallies


# ----------------------------------------------------------------------
# the build-path probe: the same keys, three ways to build the tree
# ----------------------------------------------------------------------
#: build name -> (pairs per transaction or None for all, how to add them)
BUILDS = {
    "insert_built": (
        PRELOAD_TXN,
        lambda tree, txn, pairs: [tree.insert(txn, k, r) for k, r in pairs],
    ),
    "multi_put_built": (
        INGEST_BATCH,
        lambda tree, txn, pairs: tree.multi_put(txn, pairs),
    ),
    "bulk_load_built": (
        None,
        lambda tree, txn, pairs: tree.bulk_load(txn, sorted(pairs)),
    ),
}


def run_probe(seed: int, keys: int, gets: int):
    """``(metrics, tallies)``; called from batch_btree's traced run."""
    spec = replace(LADDER, preload=keys, mix={"get": 100})
    inputs = generate_round(spec, seed, 0, gets, False)
    pairs = inputs.preload[0][1]
    ops = inputs.thread_ops[0][:gets]
    target = EmbeddedTarget(spec, list(BUILDS))
    metrics: dict = {}
    tallies = []
    try:
        db = target.db
        for build, (per_txn, add) in BUILDS.items():
            tree = db.tree(build)
            step = per_txn or len(pairs)
            for i in range(0, len(pairs), step):
                txn = db.begin()
                add(tree, txn, pairs[i : i + step])
                db.commit(txn)
            before = target.counters()
            tally = Tally()
            drive(target.runner(0, build), ops, tally)
            tallies.append(tally)
            metrics[f"gist.fixes_per_get.{build}"] = (
                _fixes(delta(target.counters(), before)) / len(ops)
            )
            metrics[f"gist.pages_per_kkey.{build}"] = (
                1e3 * tree.page_count() / len(pairs)
            )
    finally:
        target.close()
    return metrics, tallies
