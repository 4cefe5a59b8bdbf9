"""Batched multi-op APIs and bulk load: page fixes per operation.

Deterministic gates (counted, not timed — see bench_hotpath.py for the
rationale):

1. **multi_put shares descents.**  Inserting N sorted keys through
   ``multi_put`` must touch at least **3x fewer** pages than the same N
   keys as point inserts: a point insert descends from the root every
   time, a batch descends once per *leaf run* and appends the whole run
   under one latch.  Page touches are counted exactly as buffer-pool
   ``hits + misses`` deltas.

2. **bulk_load beats even multi_put.**  Building an empty tree
   bottom-up writes each page once — no descents at all — so its
   fixes/key must come in below the multi_put path's.

A mixed batch-vs-point workload wall-clock comparison is reported as
context without a tight gate.  ``BENCH_batch.json`` receives the
machine-readable numbers; ``BENCH_QUICK=1`` shrinks the workloads for
CI smoke runs.
"""

from __future__ import annotations

import os

from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.harness.driver import TransactionalDriver
from repro.workload.generator import MixSpec, ScalarWorkload

QUICK = bool(os.environ.get("BENCH_QUICK"))

PAGE_CAP = 16
N_KEYS = 240 if QUICK else 1000
WALL_OPS = 80 if QUICK else 300
WALL_THREADS = 4


def _fresh_db() -> tuple[Database, object]:
    db = Database(page_capacity=PAGE_CAP, pool_capacity=4096)
    tree = db.create_tree("batch", BTreeExtension())
    return db, tree


def _pairs(n: int) -> list[tuple[int, str]]:
    return [(k, f"r{k}") for k in range(n)]


def measure_point_inserts(n: int) -> dict:
    db, tree = _fresh_db()
    pool = db.pool
    txn = db.begin()
    before = pool.hits + pool.misses
    for key, rid in _pairs(n):
        tree.insert(txn, key, rid)
    after = pool.hits + pool.misses
    db.commit(txn)
    fixes = after - before
    db.shutdown()
    return {"path": "point_insert", "keys": n, "fixes": fixes,
            "fixes_per_key": round(fixes / n, 3)}


def measure_multi_put(n: int) -> dict:
    db, tree = _fresh_db()
    pool = db.pool
    txn = db.begin()
    before = pool.hits + pool.misses
    tree.multi_put(txn, _pairs(n))
    after = pool.hits + pool.misses
    db.commit(txn)
    fixes = after - before
    stats = tree.stats.snapshot()
    db.shutdown()
    return {
        "path": "multi_put",
        "keys": n,
        "fixes": fixes,
        "fixes_per_key": round(fixes / n, 3),
        "leaf_runs": stats["batch_leaf_runs"],
        "descents_saved": stats["batch_descents_saved"],
    }


def measure_bulk_load(n: int) -> dict:
    db, tree = _fresh_db()
    pool = db.pool
    txn = db.begin()
    before = pool.hits + pool.misses
    tree.bulk_load(txn, _pairs(n))
    after = pool.hits + pool.misses
    db.commit(txn)
    fixes = after - before
    stats = tree.stats.snapshot()
    db.shutdown()
    return {
        "path": "bulk_load",
        "keys": n,
        "fixes": fixes,
        "fixes_per_key": round(fixes / n, 3),
        "pages_built": stats["bulk_pages_built"],
    }


def test_batch_insert_shares_descents(benchmark, emit, emit_json):
    results: list[dict] = []

    def run():
        results.clear()
        results.append(measure_point_inserts(N_KEYS))
        results.append(measure_multi_put(N_KEYS))
        results.append(measure_bulk_load(N_KEYS))

    benchmark.pedantic(run, rounds=1, iterations=1)
    point, multi, bulk = results
    emit(
        f"BATCH — page fixes loading {N_KEYS} sorted keys, page "
        f"capacity {PAGE_CAP} (deterministic: counted, not timed)",
        results,
        columns=["path", "keys", "fixes", "fixes_per_key"],
    )
    emit_json(
        "batch",
        {
            "page_capacity": PAGE_CAP,
            "keys": N_KEYS,
            "point_insert": point,
            "multi_put": multi,
            "bulk_load": bulk,
            "fix_ratio_point_over_multi": round(
                point["fixes"] / max(1, multi["fixes"]), 2
            ),
        },
    )
    # ISSUE 7 gate: the batched path must touch >= 3x fewer pages
    assert point["fixes"] >= 3 * multi["fixes"], (
        f"multi_put saved too little: point={point['fixes']} fixes, "
        f"multi_put={multi['fixes']} fixes "
        f"(ratio {point['fixes'] / max(1, multi['fixes']):.2f}x < 3x)"
    )
    assert multi["descents_saved"] > 0
    assert multi["leaf_runs"] < N_KEYS
    # bottom-up build touches each page ~once: cheaper than multi_put
    assert bulk["fixes"] < multi["fixes"], (
        f"bulk_load={bulk['fixes']} fixes not below "
        f"multi_put={multi['fixes']}"
    )
    assert bulk["pages_built"] > 0


def test_mixed_batch_workload_wall_clock(benchmark, emit, emit_json):
    """Context only — throughput of a mixed workload issued as batches
    vs the same mix as point ops.  No tight gate (wall clock); the
    deterministic fixes gates above are the contract."""
    results: dict[str, float] = {}

    def run_mix(label: str, mix: MixSpec) -> None:
        db = Database(
            page_capacity=PAGE_CAP,
            pool_capacity=4096,
            io_delay=0.0002,
        )
        tree = db.create_tree("batch", BTreeExtension())
        workload = ScalarWorkload(
            seed=23, mix=mix, key_space=50_000, batch_size=16
        )
        driver = TransactionalDriver(db, tree, ops_per_txn=4)
        driver.preload(workload.preload(300))
        ops = list(workload.ops(WALL_OPS))
        # batched ops carry whole key batches: normalize to keys touched
        keys = sum(
            len(op.pairs) or len(op.keys) or 1 for op in ops
        )
        metrics = driver.run(ops, threads=WALL_THREADS)
        results[label] = keys / metrics.elapsed if metrics.elapsed else 0.0
        db.shutdown()

    def run():
        results.clear()
        run_mix("point", MixSpec(insert=0.6, search=0.4))
        run_mix(
            "batched",
            MixSpec(
                insert=0.1,
                search=0.3,
                multi_put=0.4,
                multi_get=0.1,
                multi_delete=0.1,
            ),
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        f"BATCH — mixed workload, {WALL_THREADS} threads "
        "(report; wall clock; normalized to keys touched per second)",
        [
            {"mix": label, "keys_per_sec": round(v, 1)}
            for label, v in results.items()
        ],
        columns=["mix", "keys_per_sec"],
    )
    emit_json(
        "batch",
        {
            "mixed_wall_clock": {
                label: round(v, 1) for label, v in results.items()
            }
        },
    )
    assert results["point"] > 0 and results["batched"] > 0
