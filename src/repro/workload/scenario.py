"""History-recorded concurrency scenarios with an oracle verdict.

:func:`run_scenario` executes a seeded :class:`ScalarWorkload` stream
against a live :class:`~repro.database.Database` from several worker
threads, records every completed operation's invocation/response
interval into a :class:`~repro.obs.history.HistoryRecorder`, and then
checks the whole concurrent history mechanically — per-element
linearizability plus read-committed conformance — so a scenario run
ends in a pass/fail correctness verdict instead of only a throughput
number.

Each generated operation runs as its own transaction (invocation
stamped before ``begin``, response after ``commit`` returns, which
brackets the commit-time linearization point), and operations of
aborted transactions are never recorded: they had no effect, so they
have no place in the history.  Writes are partitioned by rid — the
insert and delete of one element always run on the same worker, in
program order — which keeps every generated stream executable under
concurrency; searches round-robin across workers.  A ``multi_put``
records one insert per pair and a ``multi_get`` one search under its
multi-point predicate, both spanning the batch's transaction.

CLI (the CI ``oracle-smoke`` job)::

    PYTHONPATH=src python -m repro.workload.scenario \
        --ops 400 --threads 4 --seed 3 --check \
        [--mix insert=.4,search=.3,delete=.1,multi_put=.2]
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field, fields
from time import perf_counter, perf_counter_ns

from repro.database import Database
from repro.errors import KeyNotFoundError, best_effort
from repro.obs.history import (
    HistoryRecorder,
    OracleReport,
    check_linearizability,
    check_read_committed,
)
from repro.txn.transaction import IsolationLevel
from repro.workload.generator import MixSpec, Op, ScalarWorkload

__all__ = ["ScenarioResult", "parse_mix", "partition_by_rid", "run_scenario"]

#: op kinds the scenario can run and the oracle can judge
MIX_KINDS = ("insert", "search", "delete", "multi_put", "multi_get")


def covers(query: object, key: object) -> bool:
    """Whether a range query's predicate includes ``key``.

    The oracle's domain predicate for scalar workloads: B-tree
    ``Interval`` queries expose ``contains``.
    """
    return bool(query.contains(key))  # type: ignore[attr-defined]


def parse_mix(text: str) -> MixSpec:
    """A mix from ``kind=fraction`` pairs, e.g. ``insert=.4,search=.6``;
    kinds left out get 0, and the fractions must sum to 1."""
    shares = {f.name: 0.0 for f in fields(MixSpec)}
    for item in text.split(","):
        kind, _, share = item.partition("=")
        kind = kind.strip()
        if kind not in MIX_KINDS:
            raise ValueError(
                f"unknown or unsupported op kind {kind!r} in mix "
                f"(choose from {', '.join(MIX_KINDS)})"
            )
        shares[kind] = float(share)
    return MixSpec(**shares)


def partition_by_rid(ops: list[Op], workers: int) -> list[list[Op]]:
    """Partition an op stream so each element's writes stay ordered.

    Insert and delete of the same rid land on the same worker (in
    program order — a delete can never race ahead of its insert); a
    ``multi_put`` goes where its first pair's rid does, and later
    deletes of its pairs follow it there.  Searches and ``multi_get``
    are dealt round-robin.  Deterministic for a given stream.
    """
    buckets: list[list[Op]] = [[] for _ in range(workers)]
    home: dict = {}  # rid of a multi_put pair -> its batch's worker
    search_turn = 0
    for op in ops:
        if op.kind == "multi_put":
            idx = _stable_bucket(op.pairs[0][1], workers)
            home.update((rid, idx) for _, rid in op.pairs)
        elif op.kind in ("insert", "delete"):
            idx = home.get(op.rid)
            if idx is None:
                idx = _stable_bucket(op.rid, workers)
        else:
            idx = search_turn % workers
            search_turn += 1
        buckets[idx].append(op)
    return buckets


def _stable_bucket(rid: object, workers: int) -> int:
    """Process-independent bucket index (``hash()`` is randomized)."""
    text = str(rid)
    if text[:1] == "r" and text[1:].isdigit():
        return int(text[1:]) % workers
    return zlib.crc32(text.encode()) % workers


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    seed: int = 0
    threads: int = 0
    ops_run: int = 0
    #: operations abandoned after exhausting retries (not recorded)
    dropped: int = 0
    elapsed: float = 0.0
    errors: list[str] = field(default_factory=list)
    history: HistoryRecorder = field(default_factory=HistoryRecorder)
    linearizability: OracleReport = field(default_factory=OracleReport)
    read_committed: OracleReport = field(
        default_factory=lambda: OracleReport(mode="read-committed")
    )
    db: Database | None = None

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and self.linearizability.ok
            and self.read_committed.ok
        )


def run_scenario(
    *,
    seed: int = 0,
    ops: int = 200,
    threads: int = 4,
    preload: int = 32,
    key_space: int = 512,
    mix: MixSpec | None = None,
    selectivity: float = 0.05,
    isolation: IsolationLevel = IsolationLevel.REPEATABLE_READ,
    db: Database | None = None,
    tree=None,
    op_tracing: bool = False,
    attempts: int = 10,
) -> ScenarioResult:
    """Run one seeded, history-checked concurrency scenario.

    ``db``/``tree`` may be supplied to run against a prepared assembly
    (the oracle self-test injects a deliberately broken tree wrapper
    this way); by default a fresh database and B-tree are built.
    """
    from repro.ext.btree import BTreeExtension

    if db is None:
        db = Database(
            page_capacity=16,
            pool_capacity=128,
            lock_timeout=10.0,
            op_tracing=op_tracing,
        )
    if tree is None:
        tree = db.create_tree("scenario", BTreeExtension())

    try:
        return _run_scenario_body(
            db=db, tree=tree, seed=seed, ops=ops, threads=threads,
            preload=preload, key_space=key_space, mix=mix,
            selectivity=selectivity, isolation=isolation,
            attempts=attempts,
        )
    except Exception:
        # Unhandled failure: ship the black box before propagating.
        _dump_blackbox(db, seed)
        raise


def _dump_blackbox(db: Database, seed: int) -> str | None:
    """Dump the flight recorder for a crashed scenario, best effort."""
    import os
    import sys
    import tempfile

    path = os.path.join(
        tempfile.gettempdir(), f"scenario-blackbox-seed-{seed}.jsonl"
    )
    try:
        db.flightrec.dump(path)
    except OSError:
        return None
    print(f"scenario blackbox: {path}", file=sys.stderr)
    return path


def _run_scenario_body(
    *,
    db: Database,
    tree,
    seed: int,
    ops: int,
    threads: int,
    preload: int,
    key_space: int,
    mix: MixSpec | None,
    selectivity: float,
    isolation: IsolationLevel,
    attempts: int,
) -> ScenarioResult:
    # deferred: repro.harness.driver itself imports repro.workload
    from repro.ext.btree import MultiPoint
    from repro.harness.driver import run_with_retry

    result = ScenarioResult(seed=seed, threads=threads, db=db)
    history = result.history
    workload = ScalarWorkload(
        seed,
        mix or MixSpec(insert=0.4, search=0.4, delete=0.2),
        key_space=key_space,
        selectivity=selectivity,
    )

    # Preload inside one transaction; the records still enter the
    # history (invoked before begin, responded after commit), so the
    # oracle knows these elements exist.
    if preload > 0:
        inv = perf_counter_ns()
        txn = db.begin(isolation)
        preloaded = workload.preload(preload)
        for op in preloaded:
            tree.insert(txn, op.key, op.rid)
        db.commit(txn)
        resp = perf_counter_ns()
        for op in preloaded:
            history.add(
                "insert", inv_ns=inv, resp_ns=resp,
                key=op.key, rid=op.rid, result=True,
            )

    stream = list(workload.ops(ops))
    buckets = partition_by_rid(stream, threads)
    errors_lock = threading.Lock()

    def run_op(op: Op) -> None:
        def attempt() -> None:
            inv = perf_counter_ns()
            txn = db.begin(isolation)
            try:
                outcome: object = True
                if op.kind == "multi_put":
                    tree.multi_put(txn, op.pairs)
                elif op.kind == "multi_get":
                    found = tree.multi_get(txn, op.keys)
                    outcome = [rid for rids in found.values() for rid in rids]
                elif op.kind == "insert":
                    tree.insert(txn, op.key, op.rid)
                elif op.kind == "delete":
                    try:
                        tree.delete(txn, op.key, op.rid)
                        outcome = True
                    except KeyNotFoundError:
                        outcome = False
                else:
                    found = tree.search(txn, op.query)
                    outcome = [rid for _key, rid in found]
                db.commit(txn)
            except BaseException:
                best_effort(db.rollback, txn)
                raise
            resp = perf_counter_ns()
            if op.kind == "multi_put":
                for key, rid in op.pairs:
                    history.add(
                        "insert", inv_ns=inv, resp_ns=resp,
                        key=key, rid=rid, result=True,
                    )
            elif op.kind == "multi_get":
                history.add(
                    "search", inv_ns=inv, resp_ns=resp,
                    query=MultiPoint.of(op.keys), result=outcome,
                )
            else:
                history.add(
                    op.kind, inv_ns=inv, resp_ns=resp,
                    key=op.key, rid=op.rid, query=op.query, result=outcome,
                )

        try:
            # A deadlock victim's immediate retry takes a fresh, younger
            # xid and is picked as victim again; a jittered backoff lets
            # the survivor finish first.
            run_with_retry(attempt, attempts=attempts, base_backoff=0.001)
        except Exception as exc:
            with errors_lock:
                result.dropped += 1
                result.errors.append(f"{op.kind} {op.rid!r}: {exc!r}")
            db.flightrec.record(
                "scenario.op_dropped", kind=op.kind, error=repr(exc)
            )

    def worker(bucket: list[Op]) -> None:
        for op in bucket:
            run_op(op)

    t0 = perf_counter()
    pool = [
        threading.Thread(target=worker, args=(bucket,), daemon=True)
        for bucket in buckets
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    result.elapsed = perf_counter() - t0
    result.ops_run = len(history)

    recorded = history.ops()
    result.linearizability = check_linearizability(recorded, covers)
    result.read_committed = check_read_committed(recorded, covers)
    return result


def main(argv: list[str] | None = None) -> int:
    """CLI entry for the CI ``oracle-smoke`` job."""
    import argparse

    parser = argparse.ArgumentParser(
        description="history-recorded concurrency scenario + "
        "linearizability oracle"
    )
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--preload", type=int, default=32)
    parser.add_argument("--key-space", type=int, default=512)
    parser.add_argument(
        "--mix",
        type=parse_mix,
        default=None,
        help="op fractions as kind=share pairs, e.g. "
        "insert=.4,search=.3,delete=.1,multi_put=.2 (default "
        "insert=.4,search=.4,delete=.2)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when the oracle flags the history",
    )
    parser.add_argument(
        "--op-tracing",
        action="store_true",
        help="run with per-op span attribution enabled",
    )
    parser.add_argument(
        "--export",
        default=None,
        help="write the recorded history to this JSONL path",
    )
    args = parser.parse_args(argv)

    result = run_scenario(
        seed=args.seed,
        ops=args.ops,
        threads=args.threads,
        preload=args.preload,
        key_space=args.key_space,
        mix=args.mix,
        op_tracing=args.op_tracing,
    )

    print(
        f"scenario seed={result.seed} threads={result.threads}: "
        f"{result.ops_run} ops in {result.elapsed:.2f}s "
        f"({result.ops_run / result.elapsed:.0f} ops/s), "
        f"{result.dropped} dropped"
    )
    print(str(result.linearizability))
    print(str(result.read_committed))
    if args.export:
        print(f"history: {result.history.export_jsonl(args.export)}")
    for err in result.errors:
        print(f"error: {err}")
    if args.check and not result.ok:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
