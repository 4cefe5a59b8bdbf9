"""Chaos harness: seeded storage faults + crash/recovery trials.

Extends the crash-injection harness (experiment C5) with a
:class:`~repro.faults.FaultPlan`: each trial runs the randomized
transactional workload *while the simulated disk misbehaves* —
transient read errors, permanent write failures, torn page writes —
then crashes (optionally losing or corrupting the WAL tail), restarts,
and checks the recovery oracle:

* every transaction whose commit record survived in the valid log
  prefix keeps all of its effects;
* every other transaction (uncommitted, or committed into the lost
  tail) leaves no trace;
* the recovered tree passes the full structural invariant check.

The oracle accounts for WAL tail loss by tracking each transaction's
*commit LSN*: after recovery truncates the log at
``RecoveryReport.valid_end_lsn``, exactly the commits at or below that
LSN survive.  Tail faults never reach below the highest LSN any
persisted page or checkpoint depends on (see ``Database.crash``), so
the surviving-commit set is always a prefix of commit order and the
expected contents are computable by replaying surviving effects in
commit-LSN order.

Trials are bit-for-bit reproducible: the fault plan, the workload and
the backoff policy (``io_retry_backoff=0`` — no wall-clock sleeps) are
all derived from the seed, and the workload is single-threaded.

Run standalone for the CI chaos-smoke gate::

    PYTHONPATH=src python -m repro.harness.chaos --trials 25
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.database import Database
from repro.errors import StorageFaultError, TransactionAbort
from repro.ext.btree import Interval
from repro.faults import FaultKind, FaultPlan
from repro.gist.checker import check_tree
from repro.harness.crash import CrashRecoveryHarness, CrashTrialResult
from repro.harness.report import render_table


@dataclass
class ChaosTrialResult(CrashTrialResult):
    """Outcome of one chaos trial (crash trial + fault accounting)."""

    #: faults the plan actually fired (from ``FaultPlan.injected``)
    faults_injected: int = 0
    fault_log: list[str] = field(default_factory=list)
    #: transient-read retries the buffer pool performed
    io_retries: int = 0
    #: runtime (pre-crash) checksum-mismatch detections by the pool
    torn_pages_detected: int = 0
    #: heals across both phases: runtime rebuilds + recovery rebuilds
    torn_pages_healed: int = 0
    write_faults: int = 0
    #: log records recovery truncated at the first bad checksum
    tail_records_dropped: int = 0
    #: committed transactions whose commit record fell in the lost tail
    lost_commits: int = 0
    #: workload steps that surfaced a typed storage fault (rolled back)
    typed_failures: int = 0
    #: hard lockdep violations (``protocol_checks=True`` runs only);
    #: tracked separately because ``ok`` ignores the ``errors`` list
    protocol_violations: int = 0
    #: JSONL flight-recorder dump written because this trial failed
    #: (``None`` for passing trials — the black box is only shipped
    #: when there is something to diagnose)
    blackbox_path: str | None = None
    #: partition trials: which worker was SIGKILLed (-1 otherwise)
    killed_partition: int = -1
    #: partition trials: supervisor respawns observed
    partition_restarts: int = 0


def chaos_rows(results: list[ChaosTrialResult]) -> list[dict]:
    """Table rows for chaos results (errors surfaced, like trial_rows)."""
    rows = []
    for r in results:
        first_error = r.errors[0] if r.errors else ""
        if len(first_error) > 48:
            first_error = first_error[:47] + "…"
        rows.append(
            {
                "seed": r.seed,
                "ok": "yes" if r.ok else "NO",
                "committed": r.committed_txns,
                "faults": r.faults_injected,
                "retries": r.io_retries,
                "torn": r.torn_pages_detected,
                "healed": r.torn_pages_healed,
                "tail_drop": r.tail_records_dropped,
                "lost_commits": r.lost_commits,
                "typed_fail": r.typed_failures,
                "protocol": r.protocol_violations,
                "errors": len(r.errors),
                "first_error": first_error,
            }
        )
    return rows


class ChaosHarness(CrashRecoveryHarness):
    """Seeded fault-injection + crash/recovery trials with an oracle."""

    def __init__(
        self,
        *,
        page_capacity: int = 8,
        pool_capacity: int = 8,
        key_space: int = 10_000,
        io_retries: int = 4,
        kinds: frozenset[FaultKind] | set[FaultKind] | None = None,
        extension=None,
        protocol_checks: bool = False,
        blackbox_dir: str | None = None,
    ) -> None:
        super().__init__(
            page_capacity=page_capacity,
            key_space=key_space,
            extension=extension,
        )
        #: small pool so the workload actually evicts and re-reads pages
        #: (faults live on the simulated disk, not in resident frames)
        self.pool_capacity = pool_capacity
        self.io_retries = io_retries
        self.kinds = set(kinds) if kinds is not None else set(FaultKind)
        #: attach a lockdep witness to every trial database; any hard
        #: violation (latch-across-lock-wait, WAL rule) fails the trial
        self.protocol_checks = protocol_checks
        #: where failed trials dump their flight-recorder black box
        #: (``None``: the platform temp dir)
        self.blackbox_dir = blackbox_dir

    def run_trial(
        self,
        seed: int,
        *,
        txns: int = 20,
        ops_per_txn: int = 6,
        commit_probability: float = 0.7,
        flush_probability: float = 0.3,
        crash_mid_smo: bool = False,
    ) -> ChaosTrialResult:
        """One seeded trial: faulty workload, crash, recover, verify."""
        rng = random.Random(seed)
        plan = FaultPlan.random(seed, kinds=self.kinds)
        result = ChaosTrialResult(seed=seed)
        db = Database(
            page_capacity=self.page_capacity,
            pool_capacity=self.pool_capacity,
            lock_timeout=5.0,
            fault_plan=plan,
            io_retries=self.io_retries,
            io_retry_backoff=0.0,  # deterministic: no wall-clock sleeps
            # False defers to REPRO_PROTOCOL_CHECKS; True forces it on
            protocol_checks=self.protocol_checks or None,
        )
        tree = db.create_tree("chaos", self.extension)
        #: committed effects in commit order: (commit_lsn, inserts, deletes)
        commit_log: list[tuple[int, list, list]] = []
        zombie_rids: set[object] = set()
        counter = 0

        for _ in range(txns):
            txn = db.begin()
            will_commit = rng.random() < commit_probability
            pending_inserts: list[tuple[object, object]] = []
            pending_deletes: list[tuple[object, object]] = []
            # committed state so far (delete targets must be committed)
            committed_state: dict[object, object] = {}
            for _, inserts, deletes in commit_log:
                for key, rid in inserts:
                    committed_state[rid] = key
                for rid in deletes:
                    committed_state.pop(rid, None)
            try:
                for _ in range(ops_per_txn):
                    deletable = sorted(
                        set(committed_state)
                        - zombie_rids
                        - {rid for rid in pending_deletes}
                    )
                    if deletable and rng.random() < 0.3:
                        rid = rng.choice(deletable)
                        tree.delete(txn, committed_state[rid], rid)
                        pending_deletes.append(rid)
                    else:
                        counter += 1
                        key = rng.randrange(self.key_space)
                        rid = f"s{seed}-r{counter}"
                        tree.insert(txn, key, rid)
                        pending_inserts.append((key, rid))
            except (TransactionAbort, StorageFaultError) as exc:
                # A surfaced fault aborts the transaction like a
                # deadlock would.  Rollback itself may hit the faulty
                # disk again — then the transaction is abandoned in
                # flight (its locks vanish at the crash) exactly like
                # an uncommitted-at-crash transaction.
                if isinstance(exc, StorageFaultError):
                    result.typed_failures += 1
                try:
                    db.rollback(txn)
                except Exception:
                    result.uncommitted_txns += 1
                    zombie_rids.update(r for _, r in pending_inserts)
                    zombie_rids.update(pending_deletes)
                continue
            if will_commit:
                try:
                    commit_lsn = db.commit(txn)
                except StorageFaultError:
                    # commit's log force cannot fault (faults target the
                    # page store), but stay safe: treat as in-flight
                    result.typed_failures += 1
                    result.uncommitted_txns += 1
                    zombie_rids.update(r for _, r in pending_inserts)
                    zombie_rids.update(pending_deletes)
                    continue
                result.committed_txns += 1
                commit_log.append(
                    (commit_lsn, pending_inserts, pending_deletes)
                )
            else:
                result.uncommitted_txns += 1
                zombie_rids.update(rid for _, rid in pending_inserts)
                zombie_rids.update(pending_deletes)
            if rng.random() < flush_probability:
                try:
                    db.pool.flush_all()
                except StorageFaultError:
                    # permanent write fault: the frame stays dirty in
                    # the pool; the WAL still covers the change
                    result.typed_failures += 1

        if crash_mid_smo:
            try:
                result.crashed_mid_smo = self._interrupt_inside_split(
                    db, tree, rng
                )
            except StorageFaultError:
                result.typed_failures += 1

        # runtime fault accounting, read before the pool is discarded
        metrics = db.metrics
        result.io_retries = metrics.counter("storage.io_retries").value
        result.torn_pages_detected = metrics.counter(
            "storage.torn_pages_detected"
        ).value
        result.torn_pages_healed = metrics.counter(
            "storage.torn_pages_healed"
        ).value
        result.write_faults = metrics.counter("storage.write_faults").value

        db.crash()  # WAL tail faults (if scheduled) fire here
        self._collect_protocol(db, "runtime", result)
        try:
            db2 = db.restart({"chaos": self.extension})
        except Exception as exc:  # pragma: no cover - trial diagnostics
            result.errors.append(f"restart failed: {exc!r}")
            result.fault_log = list(plan.injected)
            result.faults_injected = len(plan.injected)
            self._dump_blackbox(db, seed, result)
            return result
        result.recovered_ok = True
        report = db2.recovery_report
        result.tail_records_dropped = report.tail_records_dropped
        # torn_pages_detected stays the pre-crash runtime snapshot;
        # recovery-phase heals only add to the healed tally (recovery
        # already counts its own detections in db2's metrics).
        result.torn_pages_healed += report.torn_pages_healed
        result.fault_log = list(plan.injected)
        result.faults_injected = len(plan.injected)

        # Oracle: exactly the commits at or below the surviving log end
        # keep their effects, applied in commit order.
        valid_end = report.valid_end_lsn
        expected: dict[object, object] = {}
        for commit_lsn, inserts, deletes in commit_log:
            if commit_lsn > valid_end:
                result.lost_commits += 1
                continue
            for key, rid in inserts:
                expected[rid] = key
            for rid in deletes:
                expected.pop(rid, None)

        tree2 = db2.tree("chaos")
        check = check_tree(tree2)
        result.structure_ok = check.ok
        result.errors.extend(check.errors)

        txn = db2.begin()
        found = {}
        for key, rid in tree2.search(txn, Interval(0, self.key_space)):
            found[rid] = key
        db2.commit(txn)
        if found == expected:
            result.contents_match = True
        else:
            missing = sorted(set(expected) - set(found))[:5]
            extra = sorted(set(found) - set(expected))[:5]
            result.errors.append(
                f"content mismatch: missing={missing} extra={extra}"
            )
        self._collect_protocol(db2, "recovery", result)
        if not result.ok or result.protocol_violations:
            # A failing seed ships its black box: the flight recorder
            # survived the restart (same instance), so the dump holds
            # the pre-crash events that led up to the failure.
            self._dump_blackbox(db2, seed, result)
        return result

    #: hook points a batch trial may crash at (mid-bulk_load, both
    #: inside and after the structure NTA, and mid-multi_put run)
    BATCH_CRASH_POINTS = (
        "bulk:attached",
        "bulk:structure-built",
        "bulk:leaf-filled",
        "multi_put:run",
    )

    def run_batch_trial(
        self,
        seed: int,
        *,
        txns: int = 12,
        batch_size: int = 12,
        commit_probability: float = 0.7,
        crash_point: str | None = None,
    ) -> ChaosTrialResult:
        """One seeded trial over the *batch* APIs, crashing mid-batch.

        The first transaction bulk-loads the empty tree; later ones
        issue ``multi_put`` / ``multi_delete`` batches.  At a seeded
        transaction the trial crashes the database from inside a batch
        operation — at one of :data:`BATCH_CRASH_POINTS`, i.e. inside
        the bulk-load structure NTA, right after it, between leaf
        fills, or between multi_put leaf runs — then restarts and
        checks the commit-LSN oracle: exactly the surviving committed
        transactions keep their effects, and the tree passes the full
        structural check.
        """
        rng = random.Random(seed ^ 0xBA7C4)
        result = ChaosTrialResult(seed=seed)
        db = Database(
            page_capacity=self.page_capacity,
            pool_capacity=max(self.pool_capacity, 32),
            lock_timeout=5.0,
            protocol_checks=self.protocol_checks or None,
        )
        tree = db.create_tree("chaos", self.extension)
        if crash_point is None:
            crash_point = self.BATCH_CRASH_POINTS[
                rng.randrange(len(self.BATCH_CRASH_POINTS))
            ]
        crash_txn = rng.randrange(txns)
        fires_before_crash = rng.randrange(3)

        class _BatchCrash(Exception):
            pass

        armed = [False]
        fired = [0]

        def maybe_crash(**_context: object) -> None:
            if not armed[0]:
                return
            fired[0] += 1
            if fired[0] > fires_before_crash:
                # Flush the tail so the crash actually tests undo of
                # durable mid-batch records, not just a lost tail.
                db.log.flush()
                raise _BatchCrash()

        db.hooks.on(crash_point, maybe_crash)

        commit_log: list[tuple[int, list, list]] = []
        zombie_rids: set[object] = set()
        counter = 0
        for t in range(txns):
            txn = db.begin()
            will_commit = rng.random() < commit_probability
            pending_inserts: list[tuple[object, object]] = []
            pending_deletes: list[object] = []
            committed_state: dict[object, object] = {}
            for _, inserts, deletes in commit_log:
                for key, rid in inserts:
                    committed_state[rid] = key
                for rid in deletes:
                    committed_state.pop(rid, None)
            armed[0] = t == crash_txn
            fired[0] = 0
            try:
                if t == 0:
                    pairs = []
                    for _ in range(batch_size * 4):
                        counter += 1
                        pairs.append(
                            (
                                rng.randrange(self.key_space),
                                f"s{seed}-r{counter}",
                            )
                        )
                    tree.bulk_load(txn, pairs)
                    pending_inserts.extend(pairs)
                else:
                    deletable = sorted(
                        set(committed_state) - zombie_rids
                    )
                    if deletable and rng.random() < 0.4:
                        victims = [
                            (committed_state[rid], rid)
                            for rid in rng.sample(
                                deletable,
                                min(batch_size, len(deletable)),
                            )
                        ]
                        tree.multi_delete(txn, victims)
                        pending_deletes.extend(rid for _, rid in victims)
                    else:
                        pairs = []
                        for _ in range(batch_size):
                            counter += 1
                            pairs.append(
                                (
                                    rng.randrange(self.key_space),
                                    f"s{seed}-r{counter}",
                                )
                            )
                        tree.multi_put(txn, pairs)
                        pending_inserts.extend(pairs)
            except _BatchCrash:
                result.uncommitted_txns += 1
                result.crashed_mid_smo = crash_point in (
                    "bulk:attached",
                )
                break
            finally:
                armed[0] = False
            if will_commit:
                commit_lsn = db.commit(txn)
                result.committed_txns += 1
                commit_log.append(
                    (commit_lsn, pending_inserts, pending_deletes)
                )
            else:
                # Abandon in flight, like a client that vanished: the
                # crash (below) wipes it, restart must undo its effects.
                result.uncommitted_txns += 1
                zombie_rids.update(rid for _, rid in pending_inserts)
                zombie_rids.update(pending_deletes)

        db.crash()
        self._collect_protocol(db, "runtime", result)
        try:
            db2 = db.restart({"chaos": self.extension})
        except Exception as exc:  # pragma: no cover - trial diagnostics
            result.errors.append(f"restart failed: {exc!r}")
            self._dump_blackbox(db, seed, result)
            return result
        result.recovered_ok = True
        report = db2.recovery_report
        result.tail_records_dropped = report.tail_records_dropped

        valid_end = report.valid_end_lsn
        expected: dict[object, object] = {}
        for commit_lsn, inserts, deletes in commit_log:
            if commit_lsn > valid_end:
                result.lost_commits += 1
                continue
            for key, rid in inserts:
                expected[rid] = key
            for rid in deletes:
                expected.pop(rid, None)

        tree2 = db2.tree("chaos")
        check = check_tree(tree2)
        result.structure_ok = check.ok
        result.errors.extend(check.errors)

        txn = db2.begin()
        found = {}
        for key, rid in tree2.search(txn, Interval(0, self.key_space)):
            found[rid] = key
        db2.commit(txn)
        if found == expected:
            result.contents_match = True
        else:
            missing = sorted(set(expected) - set(found))[:5]
            extra = sorted(set(found) - set(expected))[:5]
            result.errors.append(
                f"content mismatch at {crash_point}: "
                f"missing={missing} extra={extra}"
            )
        self._collect_protocol(db2, "recovery", result)
        if not result.ok or result.protocol_violations:
            self._dump_blackbox(db2, seed, result)
        return result

    def run_partition_trial(
        self,
        seed: int,
        *,
        partitions: int = 3,
        batches: int = 24,
        batch_size: int = 8,
    ) -> ChaosTrialResult:
        """One seeded *cluster* trial: SIGKILL a worker mid-workload.

        A :class:`~repro.cluster.PartitionedDatabase` serves a seeded
        batched workload; at a seeded point one partition worker is
        SIGKILLed — no flush, no goodbye — and the next operation that
        routes to it triggers supervisor recovery from the partition's
        WAL shadow.  The commit-LSN oracle then runs *per partition*:

        * every **acknowledged** batch leg (its ack carried the commit
          LSN and the shadow's durable LSN) keeps all of its effects on
          its partition;
        * the legs of the one batch in flight at the kill are "maybe" —
          each may be present or absent, but never torn;
        * the recovered partition's log end covers every durable LSN it
          ever acknowledged, and every partition passes the structural
          check.
        """
        from repro.cluster import PartitionedDatabase

        rng = random.Random(seed ^ 0x9A57171)
        result = ChaosTrialResult(seed=seed)
        cluster = PartitionedDatabase(
            partitions,
            router="hash",
            page_capacity=self.page_capacity,
            protocol_checks=self.protocol_checks or None,
        )
        try:
            cluster.create_tree("chaos", self.extension)
            router = cluster.router
            #: per-partition acked effects: partition -> {rid: key}
            expected: list[dict] = [{} for _ in range(partitions)]
            #: rids whose final state is unknowable (in flight at kill)
            maybe: set[object] = set()
            #: per-partition highest acknowledged durable LSN
            acked_durable = [0] * partitions
            kill_at = rng.randrange(batches // 4, (3 * batches) // 4)
            victim = rng.randrange(partitions)
            result.killed_partition = victim
            counter = 0

            for b in range(batches):
                if b == kill_at:
                    cluster.kill_partition(victim)
                ops = []
                acked_rids: list[object] = [
                    rid
                    for per in expected
                    for rid in per
                    if rid not in maybe
                ]
                for _ in range(batch_size):
                    deletable = [
                        rid
                        for rid in acked_rids
                        if rid not in {op[2] for op in ops}
                    ]
                    if deletable and rng.random() < 0.25:
                        rid = rng.choice(deletable)
                        key = next(
                            per[rid] for per in expected if rid in per
                        )
                        ops.append(("delete", key, rid))
                    else:
                        counter += 1
                        key = rng.randrange(self.key_space)
                        ops.append(("put", key, f"s{seed}-p{counter}"))
                try:
                    acks = cluster.apply_batch("chaos", ops)
                except Exception as exc:
                    # worker death mid-batch: acked legs are durable,
                    # un-acked legs are "maybe"
                    acks = getattr(exc, "acked", {})
                    for op in ops:
                        p = router.partition_of(op[1])
                        if p not in acks:
                            maybe.add(op[2])
                self._apply_partition_acks(
                    ops, acks, router, expected, acked_durable, result
                )

            # Per-partition oracle: structure + contents + LSN cover.
            # If no post-kill op happened to route to the victim, this
            # scatter is what surfaces the death: the first attempt
            # recovers the partition and fails, the retry runs clean.
            verify_queries = {"chaos": Interval(0, self.key_space)}
            try:
                reports = cluster.verify(verify_queries)
            except Exception:
                reports = cluster.verify(verify_queries)
            handle = cluster.supervisor.handles[victim]
            result.partition_restarts = cluster.supervisor.restarts
            result.recovered_ok = (
                result.partition_restarts > 0
                and handle.ready_info.get("recovered") is not None
            )
            result.structure_ok = True
            result.contents_match = True
            for p, report in sorted(reports.items()):
                tree_report = report["trees"]["chaos"]
                if not tree_report["ok"]:
                    result.structure_ok = False
                    result.errors.extend(
                        f"partition {p}: {e}"
                        for e in tree_report["errors"]
                    )
                if report["end_lsn"] < acked_durable[p]:
                    result.contents_match = False
                    result.errors.append(
                        f"partition {p}: recovered end_lsn "
                        f"{report['end_lsn']} < acked durable LSN "
                        f"{acked_durable[p]}"
                    )
                found = {
                    rid: key for key, rid in tree_report["contents"]
                }
                for rid, key in expected[p].items():
                    if rid in maybe:
                        continue
                    if found.get(rid) != key:
                        result.contents_match = False
                        result.errors.append(
                            f"partition {p}: acked {rid!r} -> {key!r} "
                            f"missing (got {found.get(rid)!r})"
                        )
                for rid in found:
                    if rid not in expected[p] and rid not in maybe:
                        result.contents_match = False
                        result.errors.append(
                            f"partition {p}: unexpected rid {rid!r}"
                        )
        finally:
            cluster.shutdown()
        return result

    def run_server_trial(
        self,
        seed: int,
        *,
        partitions: int = 2,
        batches: int = 40,
        batch_size: int = 4,
    ) -> ChaosTrialResult:
        """One seeded *serving* trial: SIGKILL the whole server mid-load.

        A child process (its own process group, so the kill takes the
        front end **and** its forked partition workers in one shot)
        runs a cluster-backed :class:`~repro.server.DatabaseServer`
        over an on-disk data dir.  The parent drives seeded batches
        through a real network client, ledgering each acknowledged
        batch's per-partition commit/durable LSNs; at a seeded point
        it SIGKILLs the server's process group, then re-opens the
        cluster from the surviving WAL shadows and runs the commit-LSN
        oracle:

        * every effect the *client* saw acknowledged is present;
        * the one batch in flight at the kill is "maybe" (present or
          absent, never torn);
        * each partition's recovered log end covers every durable LSN
          it ever acknowledged, and the structural check passes.

        This closes the durability loop end to end: the ack the oracle
        trusts crossed two process boundaries and a TCP socket before
        the client ledgered it.
        """
        import os
        import shutil
        import signal
        import tempfile
        import time as _time

        from repro.cluster import PartitionedDatabase
        from repro.errors import ReproError
        from repro.server.client import ReproClient

        rng = random.Random(seed ^ 0x5E12E12)
        result = ChaosTrialResult(seed=seed)
        data_dir = tempfile.mkdtemp(prefix=f"chaos-server-{seed}-")
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child exits via os._exit
            os.close(read_fd)
            try:
                os.setsid()  # one killpg reaps server + workers
                from repro.server import ClusterBackend, DatabaseServer

                cluster = PartitionedDatabase(
                    partitions,
                    router="hash",
                    data_dir=data_dir,
                    page_capacity=self.page_capacity,
                    protocol_checks=self.protocol_checks or None,
                )
                cluster.create_tree("chaos", self.extension)
                server = DatabaseServer(
                    ClusterBackend(cluster)
                ).start()
                os.write(write_fd, str(server.port).encode())
                os.close(write_fd)
                while True:
                    _time.sleep(3600)
            except BaseException:
                os._exit(70)
        os.close(write_fd)
        try:
            port_bytes = os.read(read_fd, 16)
        finally:
            os.close(read_fd)
        if not port_bytes:
            os.waitpid(pid, 0)
            result.errors.append("server child died before listening")
            shutil.rmtree(data_dir, ignore_errors=True)
            return result
        port = int(port_bytes.decode())

        #: client-side acked effects, partition-agnostic (the parent
        #: cannot route keys until it reopens the cluster)
        acked_state: dict[object, object] = {}
        acked_durable = [0] * partitions
        maybe: set[object] = set()
        kill_at = rng.randrange(batches // 4, (3 * batches) // 4)
        counter = 0
        killed = False
        client = ReproClient("127.0.0.1", port, f"chaos-{seed}")
        batch_log: list[list[tuple]] = []
        try:
            for b in range(batches):
                if b == kill_at:
                    os.killpg(pid, signal.SIGKILL)
                    killed = True
                ops: list[tuple] = []
                for _ in range(batch_size):
                    taken = {op[2] for op in ops}
                    deletable = sorted(
                        r for r in acked_state if r not in taken
                    )
                    if deletable and rng.random() < 0.25:
                        rid = rng.choice(deletable)
                        ops.append(("delete", acked_state[rid], rid))
                    else:
                        counter += 1
                        ops.append(
                            (
                                "put",
                                rng.randrange(self.key_space),
                                f"s{seed}-v{counter}",
                            )
                        )
                try:
                    ack = client.batch("chaos", ops, timeout=10.0)
                except (ReproError, OSError):
                    # the kill (or its wake) ate this batch: every
                    # op in it is "maybe", and the session is done
                    maybe.update(op[2] for op in ops)
                    break
                batch_log.append(ops)
                result.committed_txns += 1
                for op in ops:
                    if op[0] == "put":
                        acked_state[op[2]] = op[1]
                    else:
                        acked_state.pop(op[2], None)
                for p_str, durable in ack["durable_lsn"].items():
                    p = int(p_str)
                    acked_durable[p] = max(acked_durable[p], durable)
                    if ack["commit_lsn"][p_str] > durable:
                        result.errors.append(
                            f"partition {p}: ack commit_lsn above "
                            f"durable_lsn"
                        )
        finally:
            client.close()
            if not killed:
                os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

        # Re-open from the shadows and run the per-partition oracle.
        try:
            cluster = PartitionedDatabase.open(
                data_dir, {"chaos": self.extension}
            )
        except Exception as exc:
            result.errors.append(f"cluster reopen failed: {exc!r}")
            shutil.rmtree(data_dir, ignore_errors=True)
            return result
        try:
            result.recovered_ok = True
            result.partition_restarts = partitions
            router = cluster.router
            #: per-partition acked effects, folded now that the
            #: reopened cluster's router can place each key
            expected: list[dict] = [{} for _ in range(partitions)]
            for ops in batch_log:
                for op in ops:
                    p = router.partition_of(op[1])
                    if op[0] == "put":
                        expected[p][op[2]] = op[1]
                    else:
                        expected[p].pop(op[2], None)
            reports = cluster.verify(
                {"chaos": Interval(0, self.key_space)}
            )
            result.structure_ok = True
            result.contents_match = True
            for p, report in sorted(reports.items()):
                tree_report = report["trees"]["chaos"]
                if not tree_report["ok"]:
                    result.structure_ok = False
                    result.errors.extend(
                        f"partition {p}: {e}"
                        for e in tree_report["errors"]
                    )
                if report["end_lsn"] < acked_durable[p]:
                    result.contents_match = False
                    result.errors.append(
                        f"partition {p}: recovered end_lsn "
                        f"{report['end_lsn']} < acked durable LSN "
                        f"{acked_durable[p]}"
                    )
                found = {
                    rid: key for key, rid in tree_report["contents"]
                }
                for rid, key in expected[p].items():
                    if rid in maybe:
                        continue
                    if found.get(rid) != key:
                        result.contents_match = False
                        result.errors.append(
                            f"partition {p}: acked {rid!r} -> "
                            f"{key!r} missing "
                            f"(got {found.get(rid)!r})"
                        )
                for rid in found:
                    if rid not in expected[p] and rid not in maybe:
                        result.contents_match = False
                        result.errors.append(
                            f"partition {p}: unexpected rid {rid!r}"
                        )
        finally:
            cluster.shutdown()
            shutil.rmtree(data_dir, ignore_errors=True)
        return result

    @staticmethod
    def _apply_partition_acks(
        ops: list,
        acks: dict,
        router,
        expected: list[dict],
        acked_durable: list[int],
        result: ChaosTrialResult,
    ) -> None:
        """Fold acknowledged batch legs into the per-partition oracle."""
        for op in ops:
            p = router.partition_of(op[1])
            if p not in acks:
                continue
            if op[0] == "put":
                expected[p][op[2]] = op[1]
            else:
                expected[p].pop(op[2], None)
        for p, ack in acks.items():
            result.committed_txns += 1
            acked_durable[p] = max(acked_durable[p], ack["durable_lsn"])
            if ack["commit_lsn"] > ack["durable_lsn"]:
                result.errors.append(
                    f"partition {p}: ack commit_lsn {ack['commit_lsn']} "
                    f"above durable_lsn {ack['durable_lsn']}"
                )

    def _dump_blackbox(
        self, db: Database, seed: int, result: ChaosTrialResult
    ) -> None:
        """Dump the flight recorder and embed the path + tail in errors."""
        flightrec = db.flightrec
        if flightrec is None:
            return
        import os
        import tempfile

        directory = self.blackbox_dir or tempfile.gettempdir()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, f"chaos-blackbox-seed-{seed}.jsonl"
        )
        try:
            result.blackbox_path = flightrec.dump(path)
        except OSError as exc:  # pragma: no cover - disk-full etc.
            result.errors.append(f"blackbox dump failed: {exc!r}")
            return
        tail = ", ".join(e.name for e in flightrec.last(8))
        result.errors.append(
            f"blackbox: {result.blackbox_path} (last events: {tail})"
        )

    @staticmethod
    def _collect_protocol(
        db: Database, phase: str, result: ChaosTrialResult
    ) -> None:
        """Fold the phase's hard lockdep violations into the result.

        ``CrashTrialResult.ok`` only looks at the oracle fields, so the
        violations are counted separately and :func:`main` fails the
        run on them explicitly.
        """
        if db.witness is None:
            return
        for violation in db.witness.drain_new():
            result.protocol_violations += 1
            result.errors.append(f"protocol[{phase}]: {violation}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry for the CI ``chaos-smoke`` job."""
    import argparse

    parser = argparse.ArgumentParser(
        description="seeded storage-fault + crash/recovery trials"
    )
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument(
        "--mid-smo-every",
        type=int,
        default=5,
        help="every nth trial also crashes inside a node split",
    )
    parser.add_argument(
        "--batch-trials",
        type=int,
        default=0,
        help="additional trials over the batch APIs (bulk_load / "
        "multi_put / multi_delete) that crash mid-batch-operation",
    )
    parser.add_argument(
        "--partition-trials",
        type=int,
        default=0,
        help="additional trials against a PartitionedDatabase that "
        "SIGKILL one partition worker mid-workload, recover it from "
        "its WAL shadow, and check the commit-LSN oracle per partition",
    )
    parser.add_argument(
        "--server-trials",
        type=int,
        default=0,
        help="additional trials that run a cluster-backed network "
        "server in a child process group, SIGKILL the whole group "
        "mid-load, re-open the cluster from its WAL shadows, and "
        "check the commit-LSN oracle against the client-side ledger "
        "of acknowledged batches",
    )
    parser.add_argument(
        "--protocol-checks",
        action="store_true",
        help="attach the lockdep witness to every trial; any hard "
        "latch/lock/WAL-rule violation fails the run",
    )
    parser.add_argument(
        "--blackbox-dir",
        default=None,
        help="directory for failed trials' flight-recorder JSONL dumps "
        "(default: the platform temp dir)",
    )
    args = parser.parse_args(argv)

    harness = ChaosHarness(
        protocol_checks=args.protocol_checks,
        blackbox_dir=args.blackbox_dir,
    )
    results: list[ChaosTrialResult] = []
    for i in range(args.trials):
        seed = args.base_seed + i
        mid_smo = args.mid_smo_every > 0 and i % args.mid_smo_every == 0
        results.append(harness.run_trial(seed, crash_mid_smo=mid_smo))
    for i in range(args.batch_trials):
        results.append(harness.run_batch_trial(args.base_seed + i))
    for i in range(args.partition_trials):
        results.append(harness.run_partition_trial(args.base_seed + i))
    for i in range(args.server_trials):
        results.append(harness.run_server_trial(args.base_seed + i))

    print(render_table(chaos_rows(results), title="chaos trials"))
    # protocol violations fail the run even though the recovery oracle
    # (CrashTrialResult.ok) does not look at them
    failed = [r for r in results if not r.ok or r.protocol_violations]
    total_faults = sum(r.faults_injected for r in results)
    total_protocol = sum(r.protocol_violations for r in results)
    print(
        f"\n{len(results) - len(failed)}/{len(results)} trials ok, "
        f"{total_faults} faults injected, "
        f"{sum(r.lost_commits for r in results)} commits lost to WAL "
        f"tail faults (correctly rolled back)"
    )
    if args.protocol_checks:
        print(
            f"protocol checks: {total_protocol} hard violations across "
            f"{len(results)} trials"
        )
    for r in failed:
        print(f"\nseed {r.seed} FAILED:")
        if r.blackbox_path:
            print(f"  blackbox: {r.blackbox_path}")
        for line in r.fault_log:
            print(f"  fault: {line}")
        for err in r.errors:
            print(f"  error: {err}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
