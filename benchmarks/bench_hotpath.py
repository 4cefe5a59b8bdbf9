"""Hot-path scalability: the sharded buffer pool.

Gated **deterministically** — by counters the code maintains itself,
not by wall clock (see bench_obs_overhead.py for why wall-clock gates
are a coin flip on shared hardware):

**A resident pin is shard-local.**  Pinning a cached page acquires
exactly one mutex — the page's own shard's — which is what lets N
threads on disjoint working sets proceed without serializing on a
pool-wide lock.  Asserted via each shard's ``lock_acquisitions``
counter, once plainly and once each with the fault-injection and
lockdep layers dormant (neither may add an acquisition).

``BENCH_QUICK=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os

from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import PageKind

QUICK = bool(os.environ.get("BENCH_QUICK"))

PIN_ROUNDS = 100 if QUICK else 1000


def measure_shard_locality() -> dict:
    """Lock acquisitions per shard while hammering one resident page."""
    store = PageStore(io_delay=0.0)
    pool = BufferPool(store, capacity=64, shards=4)
    frames = [pool.new_frame(PageKind.LEAF) for _ in range(8)]
    target = frames[0].page.pid
    home = pool.shard_of(target)
    before = pool.shard_metrics()
    for _ in range(PIN_ROUNDS):
        pool.pin(target)
        pool.unpin(target)
    after = pool.shard_metrics()
    deltas = [
        after[i]["lock_acquisitions"] - before[i]["lock_acquisitions"]
        for i in range(4)
    ]
    return {"home": home, "deltas": deltas}


def test_resident_pin_is_shard_local(benchmark, emit, emit_json):
    out: dict = {}

    def run():
        out.clear()
        out.update(measure_shard_locality())

    benchmark.pedantic(run, rounds=1, iterations=1)
    home, deltas = out["home"], out["deltas"]
    emit(
        f"HOTPATH — shard lock acquisitions while pinning one resident "
        f"page {PIN_ROUNDS}x (home shard = {home})",
        [
            {
                "shard": i,
                "lock_acquisitions": d,
                "role": "home" if i == home else "other",
            }
            for i, d in enumerate(deltas)
        ],
        columns=["shard", "lock_acquisitions", "role"],
    )
    emit_json(
        "hotpath",
        {
            "shard_local_pin": {
                "pin_rounds": PIN_ROUNDS,
                "home_shard": home,
                "lock_acquisitions_by_shard": deltas,
            }
        },
    )
    for i, delta in enumerate(deltas):
        if i == home:
            # pin + unpin each take the home lock once; the final
            # shard_metrics() snapshot adds one more.
            assert delta == 2 * PIN_ROUNDS + 1
        else:
            # only the metrics snapshot itself touched foreign shards
            assert delta == 1


def test_fault_machinery_dormant_on_hot_path(benchmark, emit):
    """With no fault plan installed, the fault-injection machinery must
    cost the resident-pin hot path nothing it can't prove: the per-shard
    lock-acquisition counts are identical to the pre-fault-layer contract
    (home = pin + unpin per round + snapshot, others = snapshot only) and
    every fault/retry counter stays at zero."""
    out: dict = {}

    def run():
        out.clear()
        out.update(measure_shard_locality())

    benchmark.pedantic(run, rounds=1, iterations=1)
    home, deltas = out["home"], out["deltas"]
    emit(
        f"HOTPATH — fault machinery dormant: shard lock acquisitions "
        f"pinning one resident page {PIN_ROUNDS}x with faults disabled",
        [
            {
                "shard": i,
                "lock_acquisitions": d,
                "role": "home" if i == home else "other",
            }
            for i, d in enumerate(deltas)
        ],
        columns=["shard", "lock_acquisitions", "role"],
    )
    for i, delta in enumerate(deltas):
        expected = 2 * PIN_ROUNDS + 1 if i == home else 1
        assert delta == expected, (
            "fault machinery added lock acquisitions to the resident-pin "
            f"path: shard {i} took {delta}, expected {expected}"
        )
    # no plan => no pin-ledger tracking and no fault-layer activity
    store = PageStore(io_delay=0.0)
    pool = BufferPool(store, capacity=8, shards=2)
    assert pool._track_fixes is False
    frame = pool.new_frame(PageKind.LEAF)
    for _ in range(50):
        pool.pin(frame.page.pid)
        pool.unpin(frame.page.pid)
    for counter in (
        "storage.io_retries",
        "storage.torn_pages_detected",
        "storage.torn_pages_healed",
        "storage.write_faults",
    ):
        assert pool.metrics.counter(counter).value == 0, counter
    assert store.stats.checksum_failures == 0
    assert store.stats.faults_injected == 0


def test_protocol_checks_dormant_on_hot_path(benchmark, emit, monkeypatch):
    """With protocol checks off (the default), the lockdep layer must be
    structurally absent: no witness object exists anywhere in the
    assembly, and the resident-pin hot path performs exactly the
    contractual number of shard-lock acquisitions (home = pin + unpin
    per round + snapshot, others = snapshot only) — zero extra lock
    acquisitions of any kind."""
    monkeypatch.delenv("REPRO_PROTOCOL_CHECKS", raising=False)
    out: dict = {}

    def run():
        out.clear()
        out.update(measure_shard_locality())

    benchmark.pedantic(run, rounds=1, iterations=1)
    home, deltas = out["home"], out["deltas"]
    emit(
        f"HOTPATH — lockdep dormant: shard lock acquisitions pinning "
        f"one resident page {PIN_ROUNDS}x with protocol checks off",
        [
            {
                "shard": i,
                "lock_acquisitions": d,
                "role": "home" if i == home else "other",
            }
            for i, d in enumerate(deltas)
        ],
        columns=["shard", "lock_acquisitions", "role"],
    )
    for i, delta in enumerate(deltas):
        expected = 2 * PIN_ROUNDS + 1 if i == home else 1
        assert delta == expected, (
            "lockdep machinery added lock acquisitions to the "
            f"resident-pin path: shard {i} took {delta}, expected "
            f"{expected}"
        )
    # checks off => no witness is constructed or attached anywhere
    db = Database(page_capacity=8, pool_capacity=64)
    assert db.protocol_checks is False
    assert db.witness is None
    assert db.store.witness is None
    assert db.locks.witness is None
    assert db.pool._witness is None
    tree = db.create_tree("hot", BTreeExtension())
    txn = db.begin()
    for i in range(32):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    # frame latches were built without a witness binding too
    root_latch = db.pool.pin(tree.root_pid).latch
    db.pool.unpin(tree.root_pid)
    assert root_latch.witness is None

