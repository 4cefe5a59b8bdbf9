"""Serving CLI: ``python -m repro.server``.

Two modes:

* default — build a backend (embedded database, or a partitioned
  cluster with ``--partitions N``), start the server, and serve until
  interrupted.
* ``--smoke`` — the CI battery: start a cluster-backed server, drive
  a mixed client workload from several threads, SIGKILL one partition
  worker mid-load, and require (a) the load keeps completing through
  the kill, (b) both the server's and the clients' ledgers balance
  exactly, (c) zero hard protocol violations when the lockdep witness
  is attached, (d) a clean shutdown.  Exit code 0 only if all hold.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time

from repro.ext.btree import BTreeExtension, Interval
from repro.server.backend import ClusterBackend, LocalBackend
from repro.server.client import ReproClient
from repro.server.loadgen import LoadReport, run_closed_loop
from repro.server.server import DatabaseServer


def _build_backend(args):
    if args.partitions > 0:
        from repro.cluster import PartitionedDatabase

        cluster = PartitionedDatabase(
            args.partitions,
            router="hash",
            data_dir=args.data_dir,
            rpc_timeout=args.rpc_timeout,
            protocol_checks=args.protocol_checks or None,
        )
        cluster.create_tree("serving", BTreeExtension())
        return ClusterBackend(cluster)
    from repro.database import Database

    db = Database(protocol_checks=args.protocol_checks or None)
    db.create_tree("serving", BTreeExtension())
    return LocalBackend(db)


def _serve(args) -> int:
    backend = _build_backend(args)
    server = DatabaseServer(
        backend,
        args.host,
        args.port,
        blackbox_dir=args.blackbox_dir,
    )
    server.start()
    print(
        f"serving on {args.host}:{server.port} "
        f"(backend={'cluster' if args.partitions else 'local'})",
        flush=True,
    )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        backend.shutdown()
    return 0


def _smoke_client(
    host: str,
    port: int,
    seed: int,
    ops: int,
    reports: list,
    lock: threading.Lock,
) -> None:
    rng = random.Random(seed)
    plan = []
    for i in range(ops):
        key = rng.randrange(5_000)
        roll = rng.random()
        if roll < 0.5:
            plan.append(("put", ("serving", key, f"c{seed}-r{i}")))
        elif roll < 0.8:
            plan.append(("get", ("serving", key)))
        else:
            lo = rng.randrange(4_000)
            plan.append(
                ("search", ("serving", Interval(lo, lo + 200)))
            )
    report = run_closed_loop(
        host,
        port,
        plan,
        client_id=f"smoke-{seed}",
        deadline=5.0,
        rng=rng,
    )
    with lock:
        reports.append(report)


def _smoke(args) -> int:
    failures: list[str] = []
    backend = _build_backend(args)
    server = DatabaseServer(
        backend,
        args.host,
        args.port,
        blackbox_dir=args.blackbox_dir,
    )
    server.start()
    print(f"smoke: serving on port {server.port}", flush=True)
    reports: list[LoadReport] = []
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_smoke_client,
            args=(
                args.host,
                server.port,
                1000 + c,
                args.smoke_ops,
                reports,
                lock,
            ),
        )
        for c in range(args.smoke_clients)
    ]
    for t in threads:
        t.start()
    if args.partitions > 0:
        # kill a worker mid-load: the serving layer must ride through
        time.sleep(0.1)
        backend.cluster.kill_partition(0)
        print("smoke: SIGKILLed partition 0 mid-load", flush=True)
    for t in threads:
        t.join()

    total = LoadReport()
    for report in reports:
        total.merge(report)
    print(
        f"smoke: client ledger {total.as_dict()}",
        flush=True,
    )
    if not total.balanced():
        failures.append(
            f"client ledger unbalanced: {total.terminal()} terminal "
            f"outcomes vs {total.offered} offered"
        )
    if total.completed == 0:
        failures.append("no op completed")
    if total.dropped:
        failures.append(f"{total.dropped} frames dropped (conn died)")

    # server-side ledger must balance class by class
    with ReproClient(args.host, server.port, "smoke-probe") as probe:
        health = probe.health()
        stats = probe.stats()
    server_counts = stats["server"].get("server", {})
    for klass in ("point", "scan"):
        offered = _dig(server_counts, "offered", klass)
        admitted = _dig(server_counts, "admitted", klass)
        rejected = sum(
            _dig(server_counts, "rejected", reason, klass)
            for reason in ("queue", "stopping")
        )
        shed_admission = _dig(server_counts, "shed", "admission", klass)
        terminal = sum(
            (
                _dig(server_counts, "completed", klass),
                _dig(server_counts, "failed", klass),
                _dig(server_counts, "shed", "dequeue", klass),
                _dig(server_counts, "shed", "backend", klass),
                _dig(server_counts, "shed", "stopping", klass),
            )
        )
        if offered != admitted + rejected + shed_admission:
            failures.append(
                f"{klass}: offered {offered} != admitted {admitted} "
                f"+ rejected {rejected} + shed@admission "
                f"{shed_admission}"
            )
        if admitted != terminal:
            failures.append(
                f"{klass}: admitted {admitted} != terminal {terminal}"
            )
    print(f"smoke: health {health['status']}", flush=True)

    if args.protocol_checks and args.partitions > 0:
        violations = [
            v
            for leg in backend.cluster.protocol_report().values()
            for v in leg
        ]
        if violations:
            failures.append(
                f"{len(violations)} hard protocol violations: "
                f"{violations[:3]}"
            )
        print(
            f"smoke: protocol violations {len(violations)}",
            flush=True,
        )

    server.stop()
    backend.shutdown()
    for failure in failures:
        print(f"smoke FAILED: {failure}", file=sys.stderr, flush=True)
    print(
        f"smoke: {'FAIL' if failures else 'PASS'} "
        f"({total.completed} completed, {total.retries} retried, "
        f"{total.deadline_exceeded} deadline)",
        flush=True,
    )
    return 1 if failures else 0


def _dig(tree: dict, *path) -> int:
    node = tree
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return 0
        node = node[part]
    return node if isinstance(node, int) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="network serving layer over a repro database",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--partitions",
        type=int,
        default=0,
        help="cluster backend with N partitions (0: embedded database)",
    )
    parser.add_argument("--data-dir", default=None)
    parser.add_argument(
        "--rpc-timeout",
        type=float,
        default=2.0,
        help="per-call partition RPC deadline (cluster backend)",
    )
    parser.add_argument("--blackbox-dir", default=None)
    parser.add_argument(
        "--protocol-checks",
        action="store_true",
        help="attach the lockdep witness to every database",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI smoke battery instead of serving",
    )
    parser.add_argument("--smoke-clients", type=int, default=4)
    parser.add_argument("--smoke-ops", type=int, default=150)
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke(args)
    return _serve(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
