"""Serving layer under overload: shed, don't collapse.

Three experiments over :class:`repro.server.DatabaseServer`:

1. **Saturation goodput** (closed loop).  A handful of closed-loop
   clients — one outstanding request each — measure how fast the
   server goes when nobody overloads it.  Closed-loop clients cannot
   push past capacity by construction, so this is the honest
   capacity estimate ``G_sat`` the overload gate is anchored to.

2. **Overload** (open loop).  Poisson arrival schedules at **2x**
   the measured capacity, driven through pipelined clients with a
   per-op deadline.  The gates are the shed-don't-collapse contract:

   * goodput under 2x offered load stays >= 70% of ``G_sat`` (an
     unbounded-queue server collapses here: all capacity goes to
     requests whose callers gave up);
   * p99 latency of *admitted* (completed) ops stays within the SLO —
     deadlines bound queue wait, so admitted work is fresh work;
   * accounting is exact on **both** ledgers: every client frame has
     one outcome, every server-side offered op lands in exactly one
     terminal counter (no silent drops anywhere).

3. **Hung partition** (cluster backend).  SIGSTOP one partition
   worker mid-serving: the RPC deadline must convert the hang into
   bounded ``RetryLater`` backpressure, the circuit breaker must
   fast-fail while cooling down, and clients of the healthy partition
   must not stall behind the hung one.

``BENCH_serving.json`` receives the machine-readable numbers;
``BENCH_QUICK=1`` shrinks the workloads for CI smoke runs.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time

from repro.cluster import PartitionedDatabase
from repro.database import Database
from repro.errors import RetryLater
from repro.ext.btree import BTreeExtension, Interval
from repro.server import (
    ClusterBackend,
    DatabaseServer,
    LocalBackend,
    ReproClient,
)
from repro.server.loadgen import (
    LoadReport,
    run_closed_loop,
    run_open_loop,
)
from repro.workload.generator import PoissonArrivals

QUICK = bool(os.environ.get("BENCH_QUICK"))

KEY_SPACE = 5_000
SAT_CLIENTS = 4
SAT_OPS = 150 if QUICK else 400  # per closed-loop client
#: one pipelined client suffices for open-loop load (it never waits
#: for responses); more would just burn shared CPU on framing
OVERLOAD_CLIENTS = 1
OVERLOAD_SECS = 1.5 if QUICK else 3.0
OVERLOAD_FACTOR = 2.0
#: per-op deadline stamped by the overload clients
DEADLINE = 0.25
#: latency SLO for admitted (completed) ops
SLO_P99 = 0.5
GOODPUT_FLOOR = 0.70
#: cap the offered rate so the schedule stays drivable on tiny runners
MAX_RATE_PER_CLIENT = 4_000.0


def _preload(host: str, port: int) -> None:
    with ReproClient(host, port, "preload") as client:
        for base in range(0, KEY_SPACE, 500):
            client.multi_put(
                "serve",
                [(k, f"pre-{k}") for k in range(base, base + 500)],
            )


def _mixed_plan(seed: int, ops: int) -> list:
    """Batched reads + range scans over the preloaded tree.

    Two deliberate choices:

    * The request is the unit of admission, so each one carries a
      real slice of work (an 8-key batch or a range scan) — a
      workload whose per-request cost is comparable to its framing
      cost would measure the GIL cost of answering frames, not the
      server's shed behavior.
    * The plan is *stationary* (read-only over a fixed preload): an
      insert-heavy plan grows the tree between the saturation and
      overload phases, and the gate would then compare goodput
      against a capacity measured on a cheaper tree.  Write-path
      serving is exercised by the smoke battery and chaos trials;
      this gate isolates overload scheduling.
    """
    rng = random.Random(seed)
    plan = []
    for _ in range(ops):
        if rng.random() < 0.70:
            keys = [rng.randrange(KEY_SPACE) for _ in range(8)]
            plan.append(("multi_get", ("serve", keys)))
        else:
            lo = rng.randrange(KEY_SPACE - 60)
            plan.append(("search", ("serve", Interval(lo, lo + 60))))
    return plan


def _server_counts(server: DatabaseServer) -> dict:
    return server.metrics.snapshot().get("server", {})


def _dig(tree: dict, *path) -> int:
    node = tree
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return 0
        node = node[part]
    return node if isinstance(node, int) else 0


def _assert_server_ledger_exact(server: DatabaseServer) -> dict:
    """The shed accounting invariants, class by class, to the op."""
    counts = _server_counts(server)
    out = {}
    for klass in ("point", "scan"):
        offered = _dig(counts, "offered", klass)
        admitted = _dig(counts, "admitted", klass)
        rejected = sum(
            _dig(counts, "rejected", reason, klass)
            for reason in ("queue", "stopping")
        )
        shed_admission = _dig(counts, "shed", "admission", klass)
        terminal = sum(
            (
                _dig(counts, "completed", klass),
                _dig(counts, "failed", klass),
                _dig(counts, "shed", "dequeue", klass),
                _dig(counts, "shed", "backend", klass),
                _dig(counts, "shed", "stopping", klass),
            )
        )
        assert offered == admitted + rejected + shed_admission, (
            f"{klass}: offered {offered} != admitted {admitted} + "
            f"rejected {rejected} + shed@admission {shed_admission}"
        )
        assert admitted == terminal, (
            f"{klass}: admitted {admitted} != terminal {terminal}"
        )
        out[klass] = {
            "offered": offered,
            "admitted": admitted,
            "rejected": rejected,
            "shed_admission": shed_admission,
            "completed": _dig(counts, "completed", klass),
            "shed_dequeue": _dig(counts, "shed", "dequeue", klass),
        }
    return out


def _run_generators(fns) -> tuple[LoadReport, float]:
    """Run load generators in forked child processes.

    Client CPU (framing, pickling, schedule pacing) must not compete
    with the server for the GIL, or the measurement confounds "server
    collapsed" with "generator starved the server" — at 2x offered
    load the generators alone would eat ~half the process's cycles.
    On single-core runners even separate processes contend, so the
    children drop their scheduler priority: the gate measures the
    server's shed behavior, not OS fairness between the server and
    its synthetic load.  Each child returns ``(LoadReport, elapsed)``;
    goodput is computed against the slowest generator's window
    (submit + drain).
    """
    queue: multiprocessing.Queue = multiprocessing.Queue()

    def child(fn) -> None:
        try:
            os.nice(10)
        except OSError:
            pass  # lint: allow(swallowed-fault): priority drop is best-effort
        start = time.monotonic()
        report = fn()
        queue.put((report, time.monotonic() - start))

    procs = [
        multiprocessing.Process(target=child, args=(fn,), daemon=True)
        for fn in fns
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=120.0) for _ in fns]
    for p in procs:
        p.join(timeout=10.0)
    total = LoadReport()
    elapsed = 0.0
    for report, window in results:
        total.merge(report)
        elapsed = max(elapsed, window)
    return total, elapsed


def _measure_saturation(host: str, port: int) -> tuple[float, LoadReport]:
    """Closed-loop goodput: completed ops/sec at natural pacing."""

    def client(seed: int):
        return lambda: run_closed_loop(
            host,
            port,
            _mixed_plan(seed, SAT_OPS),
            client_id=f"sat-{seed}",
            deadline=5.0,
        )

    total, elapsed = _run_generators(
        [client(1000 + c) for c in range(SAT_CLIENTS)]
    )
    assert total.balanced(), total.as_dict()
    return total.completed / elapsed, total


def test_overload_sheds_instead_of_collapsing(emit, emit_json):
    db = Database()
    db.create_tree("serve", BTreeExtension())
    server = DatabaseServer(LocalBackend(db), port=0).start()
    try:
        _preload("127.0.0.1", server.port)
        g_sat, sat_total = _measure_saturation(
            "127.0.0.1", server.port
        )

        # -- phase B: open-loop Poisson at 2x measured capacity -----
        per_client = min(
            MAX_RATE_PER_CLIENT,
            OVERLOAD_FACTOR * g_sat / OVERLOAD_CLIENTS,
        )

        def flood(seed: int):
            def run():
                arrivals = PoissonArrivals(
                    rate=per_client, duration=OVERLOAD_SECS, seed=seed
                )
                n = len(arrivals.offsets())
                schedule = arrivals.schedule(_mixed_plan(seed, n))
                return run_open_loop(
                    "127.0.0.1",
                    server.port,
                    schedule,
                    client_id=f"flood-{seed}",
                    deadline=DEADLINE,
                )

            return run

        flood_total, elapsed = _run_generators(
            [flood(7_000 + c) for c in range(OVERLOAD_CLIENTS)]
        )
        goodput = flood_total.completed / elapsed
        offered_rate = flood_total.offered / elapsed
        p99 = flood_total.percentile(0.99)

        # exact accounting on both sides of the wire
        assert flood_total.balanced(), flood_total.as_dict()
        ledger = _assert_server_ledger_exact(server)

        emit(
            "serving: shed-don't-collapse at 2x capacity",
            [
                {
                    "phase": "saturation",
                    "offered/s": round(g_sat, 1),
                    "goodput/s": round(g_sat, 1),
                    "p99_ms": round(
                        sat_total.percentile(0.99) * 1e3, 2
                    ),
                    "shed": 0,
                },
                {
                    "phase": "2x overload",
                    "offered/s": round(offered_rate, 1),
                    "goodput/s": round(goodput, 1),
                    "p99_ms": round(p99 * 1e3, 2),
                    "shed": flood_total.retries
                    + flood_total.deadline_exceeded,
                },
            ],
        )
        emit_json(
            "serving",
            {
                "saturation_goodput_per_sec": round(g_sat, 2),
                "overload": {
                    "offered_per_sec": round(offered_rate, 2),
                    "goodput_per_sec": round(goodput, 2),
                    "goodput_ratio": round(goodput / g_sat, 4),
                    "p99_completed_secs": round(p99, 5),
                    "slo_secs": SLO_P99,
                    "deadline_secs": DEADLINE,
                    "client_ledger": flood_total.as_dict(),
                    "server_ledger": ledger,
                },
                "quick": QUICK,
            },
        )

        # the headline gates
        assert goodput >= GOODPUT_FLOOR * g_sat, (
            f"goodput collapsed: {goodput:.1f}/s under overload vs "
            f"{g_sat:.1f}/s saturated "
            f"(floor {GOODPUT_FLOOR:.0%})"
        )
        assert p99 <= SLO_P99, (
            f"admitted-op p99 {p99:.3f}s blew the {SLO_P99}s SLO"
        )
    finally:
        server.stop()
        db.shutdown()


def test_hung_partition_trips_breaker_within_bound(emit_json):
    rpc_timeout = 0.3
    cooldown = 0.5
    cluster = PartitionedDatabase(
        2,
        router="hash",
        rpc_timeout=rpc_timeout,
        breaker_cooldown=cooldown,
    )
    cluster.create_tree("serve", BTreeExtension())
    server = DatabaseServer(ClusterBackend(cluster), port=0).start()
    try:
        with ReproClient(
            "127.0.0.1", server.port, "breaker-bench"
        ) as client:
            k0 = next(
                k
                for k in range(KEY_SPACE)
                if cluster.router.partition_of(k) == 0
            )
            k1 = next(
                k
                for k in range(KEY_SPACE)
                if cluster.router.partition_of(k) == 1
            )
            client.put("serve", k0, "r0")
            client.put("serve", k1, "r1")

            os.kill(
                cluster.supervisor.handles[0].process.pid,
                signal.SIGSTOP,
            )
            start = time.monotonic()
            try:
                client.get("serve", k0, timeout=5.0)
                raise AssertionError("hung partition served a read")
            except RetryLater as exc:
                trip_secs = time.monotonic() - start
                first_reason = exc.reason

            start = time.monotonic()
            healthy = client.get("serve", k1, timeout=5.0)
            healthy_secs = time.monotonic() - start

            start = time.monotonic()
            try:
                client.get("serve", k0, timeout=5.0)
                raise AssertionError("open breaker admitted a call")
            except RetryLater as exc:
                fastfail_secs = time.monotonic() - start
                second_reason = exc.reason

        emit_json(
            "serving",
            {
                "hung_partition": {
                    "rpc_timeout_secs": rpc_timeout,
                    "trip_secs": round(trip_secs, 4),
                    "first_reason": first_reason,
                    "fastfail_secs": round(fastfail_secs, 4),
                    "second_reason": second_reason,
                    "healthy_partition_secs": round(healthy_secs, 4),
                    "healthy_rids": healthy,
                }
            },
        )

        # the hang is converted to backpressure within the deadline
        # bound (plus queue/scheduling slack), not the client's 5s
        assert first_reason == "partition_timeout"
        assert trip_secs < rpc_timeout + 1.0, trip_secs
        # the open breaker fails fast — no second deadline wait
        assert second_reason == "circuit_open"
        assert fastfail_secs < rpc_timeout / 2, fastfail_secs
        # unrelated clients never stalled behind the hung partition
        assert healthy == ["r1"]
        assert healthy_secs < rpc_timeout, healthy_secs
    finally:
        server.stop()
        cluster.shutdown()
