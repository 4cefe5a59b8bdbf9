"""Crash/recovery trials: one skeleton, five kinds of trial.

The end-to-end check of the paper's recovery claim (section 9: restart
leaves exactly the committed work, wherever the crash landed).  Every
trial runs the same loop, written once in :meth:`ChaosHarness.run_trial`:
**build** the target; **drive** a seeded workload against it, appending
every acknowledged transaction to a *ledger* (partition, the LSN its
acknowledgement promised durable, its effects) and **crash** it;
**recover** by restart or reopen, reading back each partition's
recovered log end, contents and structural check; then judge the
outcome with the one **oracle**.  The kinds — ``crash``, ``chaos``,
``batch``, ``partition``, ``server`` — differ only in the first three
steps: one ``_Trial`` subclass each (DESIGN.md §9 has the table).

The oracle treats a single database as the one-partition case of a
cluster:

* a ledger entry acknowledged at or below its partition's recovered
  end LSN keeps all of its effects, applied in acknowledgement order;
* an entry above it is a *lost commit*.  That is allowed — and the
  entry must then leave no trace — only when a WAL-tail fault fired on
  that target; otherwise it is an error;
* effects in flight at a kill (the "maybe" set) may be present or
  absent; nothing else may be present;
* every partition passes the structural check.

Tail faults never reach below the highest LSN any persisted page or
checkpoint depends on (see ``Database.crash``), so the lost commits
are always a suffix of commit order.

Trials are bit-for-bit reproducible: the fault plan and the workload
are derived from the seed, read retries never sleep, and the
single-database workloads are single-threaded.  A failing
single-database trial dumps its flight-recorder black box.

Run standalone for the CI chaos-smoke gate::

    PYTHONPATH=src python -m repro.harness.chaos --trials 25
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field

from repro.database import Database
from repro.errors import (
    CrashError,
    PartitionFailedError,
    ReproError,
    StorageFaultError,
    TransactionAbort,
    best_effort,
)
from repro.ext.btree import BTreeExtension, Interval
from repro.faults import FaultKind, FaultPlan
from repro.gist.checker import check_tree
from repro.harness.report import render_table

#: every trial's keys come from ``range(KEY_SPACE)`` in a B-tree named
#: ``TREE``; the oracle reads back ``Interval(0, KEY_SPACE)``
KEY_SPACE = 10_000
TREE = "chaos"
#: share of single-database transactions that commit (the rest are
#: left in flight for restart to roll back)
COMMIT_PROBABILITY = 0.7
#: a crash/chaos transaction's insert-or-delete steps
OPS_PER_TXN = 6
#: a batch trial's transactions and pairs per batch (the bulk load in
#: transaction 0 loads four batches' worth)
BATCH_TXNS = 12
BATCH_SIZE = 12
#: hook points a batch trial may crash at: inside the bulk-load
#: structure NTA, right after it, between leaf fills, and between
#: multi_put leaf runs
BATCH_CRASH_POINTS = (
    "bulk:attached",
    "bulk:structure-built",
    "bulk:leaf-filled",
    "multi_put:run",
)
#: the points that fire more than once per operation (once per leaf);
#: only these crash after a seeded number of earlier firings
REPEATING_POINTS = ("bulk:leaf-filled", "multi_put:run")


@dataclass
class TrialResult:
    """Outcome of one trial: the oracle's verdict plus fault accounting."""

    seed: int
    kind: str = "chaos"
    #: where the crash landed: ``end`` of the workload, inside a
    #: ``split``, a batch hook point, or ``kill@batch N``
    crash: str = "end"
    committed_txns: int = 0
    uncommitted_txns: int = 0
    recovered_ok: bool = False
    contents_match: bool = False
    structure_ok: bool = False
    errors: list[str] = field(default_factory=list)
    #: faults the plan actually fired (``FaultPlan.injected``)
    fault_log: list[str] = field(default_factory=list)
    #: transient-read retries the buffer pool performed
    io_retries: int = 0
    #: runtime (pre-crash) checksum-mismatch detections by the pool
    torn_pages_detected: int = 0
    #: heals across both phases: runtime rebuilds + recovery rebuilds
    torn_pages_healed: int = 0
    #: log records recovery truncated at the first bad checksum
    tail_records_dropped: int = 0
    #: acknowledged transactions whose commit fell above the recovered
    #: log end (an error unless a WAL-tail fault fired)
    lost_commits: int = 0
    #: workload steps that surfaced a typed storage fault (rolled back)
    typed_failures: int = 0
    #: hard lockdep violations (``protocol_checks=True`` runs only)
    protocol_violations: int = 0
    #: JSONL flight-recorder dump written because this trial failed
    #: (``None`` for passing trials — the black box is only shipped
    #: when there is something to diagnose)
    blackbox_path: str | None = None
    #: partition trials: which worker was SIGKILLed (-1 otherwise)
    killed_partition: int = -1
    #: cluster trials: partition recoveries observed
    partition_restarts: int = 0

    @property
    def crashed_mid_smo(self) -> bool:
        """The crash interrupted a structure modification's atomic action."""
        return self.crash in ("split", "bulk:attached")

    @property
    def faults_injected(self) -> int:
        return len(self.fault_log)

    @property
    def ok(self) -> bool:
        """The one verdict: recovery, contents and structure checked
        out, and nothing else — a protocol violation, a scheduled crash
        that never fired, a bad ack — recorded an error."""
        return (
            self.recovered_ok
            and self.contents_match
            and self.structure_ok
            and not self.errors
        )


def trial_rows(results: list[TrialResult]) -> list[dict]:
    """Table rows, one per trial, *including its first error*.

    The first error (truncated) and the error count are surfaced so a
    failing seed in CI output says *why* it failed, not just that it
    did.  Feed the rows to :func:`repro.harness.report.render_table`.
    """
    rows = []
    for r in results:
        first_error = r.errors[0] if r.errors else ""
        if len(first_error) > 48:
            first_error = first_error[:47] + "…"
        rows.append(
            {
                "kind": r.kind,
                "seed": r.seed,
                "crash": r.crash,
                "ok": "yes" if r.ok else "NO",
                "committed": r.committed_txns,
                "uncommitted": r.uncommitted_txns,
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


@dataclass
class _Partition:
    """One recovered partition, as the oracle reads it."""

    #: error-message prefix (empty for a single database)
    label: str
    #: recovered log end: acknowledged LSNs above it were lost
    end_lsn: int
    #: rid -> key of every entry a full-range search returned
    found: dict
    #: the structural check's findings
    errors: list[str]
    #: a WAL-tail fault fired here, so lost commits are expected
    tail_fault: bool = False


def _apply(state: dict, verb: str, key: object, rid: object) -> None:
    """Apply one ledger op to a ``rid -> key`` map."""
    if verb == "put":
        state[rid] = key
    else:
        state.pop(rid, None)


class _Trial:
    """One kind's steps, called in order by :meth:`ChaosHarness.run_trial`.

    A kind defines ``build()``; ``drive()``, which runs the workload,
    ledgers every acknowledgement through :meth:`ack` and ends with the
    crash; ``recover()``, which restarts or reopens the target and
    returns its recovered partitions in order; and, if ``build``
    acquired processes or directories, ``close()``.  ``SETTINGS`` names
    the kind's workload settings and their defaults; ``run_trial``'s
    ``scenario`` overrides them, and an unknown name is a ``TypeError``.
    """

    SETTINGS: dict[str, object] = {}
    #: xor-ed into the seed for the workload rng, so the kinds draw
    #: different workloads from the same seed
    SALT = 0

    def __init__(
        self, harness: ChaosHarness, seed: int, result: TrialResult, **scenario
    ) -> None:
        unknown = sorted(set(scenario) - set(self.SETTINGS))
        if unknown:
            raise TypeError(f"{result.kind} trials take no {unknown}")
        vars(self).update(self.SETTINGS, **scenario)
        self.harness = harness
        self.seed = seed
        self.result = result
        self.rng = random.Random(seed ^ self.SALT)
        #: single-database kinds: the trial database, whose witness and
        #: flight recorder the skeleton reads (``None`` for clusters)
        self.db: Database | None = None
        #: acknowledged transactions in acknowledgement order:
        #: ``(partition, durable LSN, ops)``, each op
        #: ``("put" | "delete", key, rid)``
        self.acked: list[tuple[int, int, list[tuple]]] = []
        #: rids in flight at a kill: each may be present or absent
        self.maybe: set = set()
        #: ``rid -> key`` of the acknowledged state so far — what later
        #: deletes may target
        self.state: dict = {}
        self._rids = 0

    def new_rid(self) -> str:
        self._rids += 1
        return f"s{self.seed}-r{self._rids}"

    def random_ops(self, count: int, p_delete: float, exclude: set):
        """Yield ``count`` ops: deletes (with probability ``p_delete``) of
        acknowledged rids not in ``exclude`` nor already in this batch,
        puts of fresh rids otherwise."""
        taken: set = set()
        for _ in range(count):
            deletable = sorted(set(self.state) - exclude - taken)
            if deletable and self.rng.random() < p_delete:
                rid = self.rng.choice(deletable)
                op = ("delete", self.state[rid], rid)
            else:
                op = ("put", self.rng.randrange(KEY_SPACE), self.new_rid())
            taken.add(op[2])
            yield op

    def ack(self, partition: int, lsn: int, ops: list[tuple]) -> None:
        """Ledger one acknowledged transaction."""
        self.acked.append((partition, lsn, ops))
        self.result.committed_txns += 1
        for op in ops:
            _apply(self.state, *op)

    def close(self) -> None:
        pass


class _DatabaseTrial(_Trial):
    """crash / chaos: random insert/delete transactions on one Database.

    Some transactions commit, some are left in flight (restart must roll
    them back), and the pool is flushed at random points, so every mix
    of on-disk and log-only state occurs.  With ``crash_mid_smo`` one
    last transaction is interrupted *inside a node split*, before the
    atomic action's closing record — the hardest case of section 9.
    """

    SETTINGS = {
        "txns": 20,
        "commit_probability": COMMIT_PROBABILITY,
        "flush_probability": 0.3,
        "crash_mid_smo": False,
    }
    #: small pool so the workload actually evicts and re-reads pages
    #: (faults live on the simulated disk, not in resident frames)
    POOL = 8

    def __init__(self, harness, seed, result, **scenario) -> None:
        super().__init__(harness, seed, result, **scenario)
        self.plan = (
            FaultPlan.random(seed, kinds=harness.kinds)
            if result.kind == "chaos"
            else None
        )
        #: rids whose locks are held by abandoned in-flight transactions;
        #: later transactions must not touch them or they would block on
        #: a lock that will only vanish at the crash
        self.zombies: set = set()

    def build(self) -> None:
        self.db = Database(
            page_capacity=self.harness.page_capacity,
            pool_capacity=self.POOL,
            lock_timeout=5.0,
            fault_plan=self.plan,
            # False defers to REPRO_PROTOCOL_CHECKS; True forces it on
            protocol_checks=self.harness.protocol_checks or None,
        )
        self.tree = self.db.create_tree(TREE, BTreeExtension())

    def abandon(self, ops: list[tuple]) -> None:
        """Leave a transaction in flight: it vanishes in the crash and
        restart must undo it."""
        self.result.uncommitted_txns += 1
        self.zombies.update(rid for _, _, rid in ops)

    def drive(self) -> None:
        db, tree, rng, result = self.db, self.tree, self.rng, self.result
        for _ in range(self.txns):
            txn = db.begin()
            will_commit = rng.random() < self.commit_probability
            ops: list[tuple] = []
            try:
                for op in self.random_ops(OPS_PER_TXN, 0.3, self.zombies):
                    verb, key, rid = op
                    if verb == "put":
                        tree.insert(txn, key, rid)
                    else:
                        tree.delete(txn, key, rid)
                    ops.append(op)
            except (TransactionAbort, StorageFaultError) as exc:
                # A surfaced fault aborts the transaction like a
                # deadlock would.  Rollback itself may hit the faulty
                # disk again — then the transaction is abandoned in
                # flight (its locks vanish at the crash) exactly like
                # an uncommitted-at-crash transaction.
                if isinstance(exc, StorageFaultError):
                    result.typed_failures += 1
                if not best_effort(db.rollback, txn):
                    self.abandon(ops)
                continue
            if not will_commit:
                self.abandon(ops)
            else:
                try:
                    self.ack(0, db.commit(txn), ops)
                except StorageFaultError:
                    # commit's log force cannot fault (faults target the
                    # page store), but stay safe: treat as in-flight
                    result.typed_failures += 1
                    self.abandon(ops)
                    continue
            if rng.random() < self.flush_probability:
                try:
                    db.pool.flush_all()
                except StorageFaultError:
                    # permanent write fault: the frame stays dirty in
                    # the pool; the WAL still covers the change
                    result.typed_failures += 1
        if self.crash_mid_smo:
            try:
                if self._interrupt_inside_split():
                    result.crash = "split"
            except StorageFaultError:
                result.typed_failures += 1
        self.crash()

    def _interrupt_inside_split(self) -> bool:
        """Force a crash exception inside a split's atomic action.

        The hook fires after the split record is written but before the
        enclosing nested top action commits, leaving an *interrupted
        structure modification* in the log — restart must undo it
        page-oriented (section 9.2).  Storage faults are disarmed first
        (WAL-tail faults stay armed), so no write fault surfaces before
        the split does.
        """

        def bomb(**_ctx: object) -> None:
            raise CrashError("injected crash inside split")

        db, rng = self.db, self.rng
        if self.plan is not None:
            self.plan.note_restart()
        db.hooks.on("insert:after-split", bomb)
        txn = db.begin()
        try:
            # hammer inserts until one of them splits a node
            for _ in range(self.harness.page_capacity * 50):
                self.tree.insert(
                    txn, rng.randrange(KEY_SPACE), f"smo-{rng.random()}"
                )
        except CrashError:
            return True
        finally:
            db.hooks.clear()
        return False

    def crash(self) -> None:
        """Read the runtime fault counters, crash the database (WAL-tail
        faults, if scheduled, fire here), then read the fault log —
        restart injects nothing (``FaultPlan.note_restart``)."""
        for name in ("io_retries", "torn_pages_detected", "torn_pages_healed"):
            value = self.db.metrics.counter(f"storage.{name}").value
            setattr(self.result, name, value)
        self.db.crash()
        if self.plan is not None:
            self.result.fault_log = list(self.plan.injected)

    def recover(self) -> list[_Partition]:
        result = self.result
        self.db = self.db.restart({TREE: BTreeExtension()})
        report = self.db.recovery_report
        result.tail_records_dropped = report.tail_records_dropped
        # torn_pages_detected stays the pre-crash runtime snapshot;
        # recovery-phase heals only add to the healed tally (recovery
        # already counts its own detections in the new metrics).
        result.torn_pages_healed += report.torn_pages_healed
        tree = self.db.tree(TREE)
        check = check_tree(tree)
        txn = self.db.begin()
        found = {
            rid: key for key, rid in tree.search(txn, Interval(0, KEY_SPACE))
        }
        self.db.commit(txn)
        tail_fault = any(f.startswith("wal_tail") for f in result.fault_log)
        return [
            _Partition(
                "", report.valid_end_lsn, found, check.errors, tail_fault
            )
        ]


class _BatchTrial(_DatabaseTrial):
    """batch: the batch APIs, crashing from inside a batch operation.

    Transaction 0 bulk-loads the empty tree; later ones issue
    ``multi_put`` / ``multi_delete`` batches.  The crash fires at one of
    :data:`BATCH_CRASH_POINTS` (seeded unless ``crash_point`` pins it):
    a ``bulk:*`` point arms the loading transaction, ``multi_put:run`` a
    seeded later transaction that is made to run ``multi_put``.  A
    scheduled crash that never fires is a trial error.
    """

    SETTINGS = {"crash_point": None}
    SALT = 0xBA7C4
    POOL = 32

    def drive(self) -> None:
        db, rng, result = self.db, self.rng, self.result
        point = self.crash_point or BATCH_CRASH_POINTS[
            rng.randrange(len(BATCH_CRASH_POINTS))
        ]
        crash_txn = (
            0 if point.startswith("bulk:") else rng.randrange(1, BATCH_TXNS)
        )
        # a multi_put of BATCH_SIZE random keys writes at least two
        # leaf runs, so the crash may wait for one earlier firing
        fires_before_crash = (
            rng.randrange(2) if point in REPEATING_POINTS else 0
        )
        armed = False
        firings = 0

        def maybe_crash(**_context: object) -> None:
            nonlocal firings
            if not armed:
                return
            firings += 1
            if firings > fires_before_crash:
                # Flush the tail so the crash actually tests undo of
                # durable mid-batch records, not just a lost tail.
                db.log.flush()
                raise CrashError(f"injected crash at {point}")

        db.hooks.on(point, maybe_crash)
        for t in range(BATCH_TXNS):
            txn = db.begin()
            will_commit = rng.random() < COMMIT_PROBABILITY
            armed = t == crash_txn
            try:
                ops = self._batch(
                    t, txn, put_only=armed and point == "multi_put:run"
                )
            except CrashError:
                result.uncommitted_txns += 1
                result.crash = point
                break
            finally:
                armed = False
            if will_commit:
                self.ack(0, db.commit(txn), ops)
            else:
                self.abandon(ops)
        else:
            result.errors.append(
                f"scheduled crash at {point} (transaction {crash_txn}) "
                f"never fired"
            )
        self.crash()

    def _batch(self, t: int, txn, *, put_only: bool) -> list[tuple]:
        """Transaction ``t``'s batch operation; its ledger ops."""
        rng, tree = self.rng, self.tree
        if t == 0:
            pairs = [
                (rng.randrange(KEY_SPACE), self.new_rid())
                for _ in range(4 * BATCH_SIZE)
            ]
            tree.bulk_load(txn, pairs)
            return [("put", key, rid) for key, rid in pairs]
        deletable = sorted(set(self.state) - self.zombies)
        if not put_only and deletable and rng.random() < 0.4:
            victims = [
                (self.state[rid], rid)
                for rid in rng.sample(
                    deletable, min(BATCH_SIZE, len(deletable))
                )
            ]
            tree.multi_delete(txn, victims)
            return [("delete", key, rid) for key, rid in victims]
        pairs = [
            (rng.randrange(KEY_SPACE), self.new_rid())
            for _ in range(BATCH_SIZE)
        ]
        tree.multi_put(txn, pairs)
        return [("put", key, rid) for key, rid in pairs]


class _ClusterTrial(_Trial):
    """partition / server: op batches against a hash-partitioned cluster.

    A batch is one transaction per partition leg; each leg's ack
    carries its commit LSN and the LSN the worker's WAL shadow has made
    durable, which is what the ledger records.  The kill comes before a
    seeded batch in the middle half of the run.  A kind defines
    ``kill()`` and ``send(ops)``, which returns the acknowledged legs as
    ``{partition: (commit_lsn, durable_lsn)}``, or ``None`` once the
    session is over.
    """

    SETTINGS = {"partitions": 3, "batches": 24, "batch_size": 8}

    def __init__(self, harness, seed, result, **scenario) -> None:
        from repro.cluster import HashRouter

        super().__init__(harness, seed, result, **scenario)
        #: the clusters route with ``router="hash"``: the same placement
        self.route = HashRouter(self.partitions).partition_of
        self.cluster = None

    def build_cluster(self, data_dir: str | None = None):
        from repro.cluster import PartitionedDatabase

        self.cluster = PartitionedDatabase(
            self.partitions,
            router="hash",
            data_dir=data_dir,
            page_capacity=self.harness.page_capacity,
            protocol_checks=self.harness.protocol_checks or None,
        )
        self.cluster.create_tree(TREE, BTreeExtension())
        return self.cluster

    def drive(self) -> None:
        kill_at = self.rng.randrange(
            self.batches // 4, (3 * self.batches) // 4
        )
        self.result.crash = f"kill@batch {kill_at}"
        for b in range(self.batches):
            if b == kill_at:
                self.kill()
            ops = list(
                self.random_ops(self.batch_size, 0.25, self.maybe)
            )
            legs = self.send(ops)
            if legs is None:
                break
            self.ack_legs(ops, legs)

    def ack_legs(self, ops: list[tuple], legs: dict) -> None:
        """Ledger a batch's acknowledged legs,
        ``{partition: (commit_lsn, durable_lsn)}``; the ops of every
        other leg are "maybe"."""
        for p, (commit_lsn, durable_lsn) in sorted(legs.items()):
            if commit_lsn > durable_lsn:
                self.result.errors.append(
                    f"partition {p}: ack commit_lsn {commit_lsn} above "
                    f"durable_lsn {durable_lsn}"
                )
            leg = [op for op in ops if self.route(op[1]) == p]
            self.ack(p, durable_lsn, leg)
        self.maybe.update(
            rid for _, key, rid in ops if self.route(key) not in legs
        )

    def verified(self, reports: dict) -> list[_Partition]:
        """The cluster's per-partition verify reports, for the oracle."""
        partitions = []
        for p, report in sorted(reports.items()):
            tree = report["trees"][TREE]
            found = {rid: key for key, rid in tree["contents"]}
            partitions.append(
                _Partition(
                    f"partition {p}: ", report["end_lsn"], found, tree["errors"]
                )
            )
        return partitions

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()


class _PartitionTrial(_ClusterTrial):
    """partition: SIGKILL one worker of an in-process cluster mid-load.

    No flush, no goodbye: the next operation routed to the victim (or
    the final verify) triggers supervisor recovery from the partition's
    WAL shadow.  Legs of the batch that hit the dead worker are "maybe".
    """

    SALT = 0x9A57171

    def build(self) -> None:
        self.build_cluster()

    def drive(self) -> None:
        self.victim = self.result.killed_partition = self.rng.randrange(
            self.partitions
        )
        super().drive()

    def kill(self) -> None:
        self.cluster.kill_partition(self.victim)

    def send(self, ops: list[tuple]) -> dict:
        try:
            acks = self.cluster.apply_batch(TREE, ops)
        except PartitionFailedError as exc:
            # worker death mid-batch: acked legs are durable,
            # un-acked legs are "maybe"
            acks = getattr(exc, "acked", {})
        return {
            p: (ack["commit_lsn"], ack["durable_lsn"])
            for p, ack in acks.items()
        }

    def recover(self) -> list[_Partition]:
        # If no post-kill op happened to route to the victim, this
        # verify is what surfaces the death: the first attempt
        # recovers the partition and fails, the retry runs clean.
        queries = {TREE: Interval(0, KEY_SPACE)}
        try:
            reports = self.cluster.verify(queries)
        except PartitionFailedError:
            reports = self.cluster.verify(queries)
        supervisor = self.cluster.supervisor
        self.result.partition_restarts = supervisor.restarts
        ready = supervisor.handles[self.victim].ready_info
        if not supervisor.restarts or ready.get("recovered") is None:
            raise RuntimeError(
                f"partition {self.victim} was never recovered from its "
                f"shadow"
            )
        return self.verified(reports)


class _ServerTrial(_ClusterTrial):
    """server: SIGKILL a whole serving process group mid-load.

    A child process — its own process group, so one kill takes the
    front end **and** its forked partition workers — runs a
    cluster-backed :class:`~repro.server.DatabaseServer` over an
    on-disk data dir.  The parent drives batches through a real network
    client, then re-opens the cluster from the surviving WAL shadows:
    the ack the oracle trusts crossed two process boundaries and a TCP
    socket before the client ledgered it.
    """

    SALT = 0x5E12E12
    pid: int | None = None
    data_dir: str | None = None

    def build(self) -> None:
        self.data_dir = tempfile.mkdtemp(prefix=f"chaos-server-{self.seed}-")
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # pragma: no cover - child exits via os._exit
            os.close(read_fd)
            try:
                self._serve(write_fd)
            except BaseException:
                os._exit(70)
        os.close(write_fd)
        try:
            port = os.read(read_fd, 16)
        finally:
            os.close(read_fd)
        if not port:
            raise RuntimeError("server child died before listening")
        self.port = int(port.decode())

    def _serve(self, write_fd: int) -> None:  # pragma: no cover - child
        from repro.server import ClusterBackend, DatabaseServer

        os.setsid()  # one killpg reaps server + workers
        cluster = self.build_cluster(self.data_dir)
        server = DatabaseServer(ClusterBackend(cluster)).start()
        os.write(write_fd, str(server.port).encode())
        os.close(write_fd)
        while True:
            time.sleep(3600)

    def kill(self) -> None:
        """SIGKILL the server's process group (once) and reap the child."""
        if self.pid is None:
            return
        best_effort(
            os.killpg, self.pid, signal.SIGKILL, only=(ProcessLookupError,)
        )
        os.waitpid(self.pid, 0)
        self.pid = None

    def drive(self) -> None:
        from repro.server.client import ReproClient

        self.client = ReproClient("127.0.0.1", self.port, f"chaos-{self.seed}")
        try:
            super().drive()
        finally:
            self.client.close()
            self.kill()

    def send(self, ops: list[tuple]) -> dict | None:
        try:
            ack = self.client.batch(TREE, ops, timeout=10.0)
        except (ReproError, OSError):
            # the kill (or its wake) ate this batch and ended the
            # session: every op in it is "maybe"
            self.maybe.update(rid for _, _, rid in ops)
            return None
        return {
            int(p): (ack["commit_lsn"][p], durable)
            for p, durable in ack["durable_lsn"].items()
        }

    def recover(self) -> list[_Partition]:
        from repro.cluster import PartitionedDatabase

        self.cluster = PartitionedDatabase.open(
            self.data_dir, {TREE: BTreeExtension()}
        )
        self.result.partition_restarts = self.partitions
        return self.verified(
            self.cluster.verify({TREE: Interval(0, KEY_SPACE)})
        )

    def close(self) -> None:
        self.kill()
        super().close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


_TRIALS: dict[str, type[_Trial]] = {
    "crash": _DatabaseTrial,
    "chaos": _DatabaseTrial,
    "batch": _BatchTrial,
    "partition": _PartitionTrial,
    "server": _ServerTrial,
}
#: the trial kinds, in the order the CLI runs them
KINDS = tuple(_TRIALS)


class ChaosHarness:
    """Seeded crash/recovery trials of every kind, judged by one oracle."""

    def __init__(
        self,
        *,
        page_capacity: int = 8,
        kinds: frozenset[FaultKind] | set[FaultKind] | None = None,
        protocol_checks: bool = False,
        blackbox_dir: str | None = None,
    ) -> None:
        self.page_capacity = page_capacity
        #: the fault kinds a ``chaos`` trial's seeded plan draws from
        self.kinds = set(kinds) if kinds is not None else set(FaultKind)
        #: attach a lockdep witness to every trial database; any hard
        #: violation (latch-across-lock-wait, WAL rule) fails the trial
        self.protocol_checks = protocol_checks
        #: where failed trials dump their flight-recorder black box
        #: (``None``: the platform temp dir)
        self.blackbox_dir = blackbox_dir

    def run_trial(
        self, seed: int, kind: str = "chaos", **scenario
    ) -> TrialResult:
        """One seeded trial: build → drive → crash → recover → oracle.

        ``kind`` is one of :data:`KINDS`; ``scenario`` overrides the
        kind's ``SETTINGS`` — ``txns``, ``commit_probability``,
        ``flush_probability``, ``crash_mid_smo`` (crash, chaos);
        ``crash_point`` (batch); ``partitions``, ``batches``,
        ``batch_size`` (partition, server).
        """
        if kind not in _TRIALS:
            raise ValueError(f"unknown trial kind {kind!r}; one of {KINDS}")
        result = TrialResult(seed=seed, kind=kind)
        trial = _TRIALS[kind](self, seed, result, **scenario)
        try:
            trial.build()
            trial.drive()
            self._collect_protocol(trial.db, "runtime", result)
            try:
                partitions = trial.recover()
            except Exception as exc:
                result.errors.append(f"recovery failed: {exc!r}")
            else:
                result.recovered_ok = True
                self._judge(result, trial, partitions)
                self._collect_protocol(trial.db, "recovery", result)
            if not result.ok and trial.db is not None:
                # A failing seed ships its black box: the flight
                # recorder survived the restart (same instance), so the
                # dump holds the pre-crash events that led up to it.
                self._dump_blackbox(trial.db, seed, result)
        finally:
            trial.close()
        return result

    @staticmethod
    def _judge(
        result: TrialResult, trial: _Trial, partitions: list[_Partition]
    ) -> None:
        """The oracle of the module docstring, for one partition or
        many: the commit-LSN cut and expected-contents fold, then the
        structure check and found-vs-expected per partition."""
        contents_match = True
        expected: list[dict] = [{} for _ in partitions]
        for p, lsn, ops in trial.acked:
            part = partitions[p]
            if lsn <= part.end_lsn:
                for op in ops:
                    _apply(expected[p], *op)
                continue
            result.lost_commits += 1
            if not part.tail_fault:
                contents_match = False
                result.errors.append(
                    f"{part.label}lost commit without a WAL-tail fault: "
                    f"acked LSN {lsn} > recovered end {part.end_lsn}"
                )
        result.structure_ok = True
        for part, want in zip(partitions, expected):
            if part.errors:
                result.structure_ok = False
                result.errors.extend(part.label + e for e in part.errors)
            want = {r: k for r, k in want.items() if r not in trial.maybe}
            got = {r: k for r, k in part.found.items() if r not in trial.maybe}
            if got != want:
                contents_match = False
                missing = sorted(r for r in want if got.get(r) != want[r])
                extra = sorted(set(got) - set(want))
                result.errors.append(
                    f"{part.label}content mismatch: missing={missing[:5]} "
                    f"extra={extra[:5]}"
                )
        result.contents_match = contents_match

    def _dump_blackbox(
        self, db: Database, seed: int, result: TrialResult
    ) -> None:
        """Dump the flight recorder and embed the path + tail in errors."""
        flightrec = db.flightrec
        if flightrec is None:
            return
        directory = self.blackbox_dir or tempfile.gettempdir()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, f"{result.kind}-blackbox-seed-{seed}.jsonl"
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
        db: Database | None, phase: str, result: TrialResult
    ) -> None:
        """Fold the phase's hard lockdep violations into the result."""
        if db is None or db.witness is None:
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
    extra_kinds = {
        "batch": "additional trials over the batch APIs (bulk_load / "
        "multi_put / multi_delete) that crash mid-batch-operation",
        "partition": "additional trials against a PartitionedDatabase "
        "that SIGKILL one partition worker mid-workload, recover it "
        "from its WAL shadow, and check the commit-LSN oracle per "
        "partition",
        "server": "additional trials that run a cluster-backed network "
        "server in a child process group, SIGKILL the whole group "
        "mid-load, re-open the cluster from its WAL shadows, and "
        "check the commit-LSN oracle against the client-side ledger "
        "of acknowledged batches",
    }
    for kind, help_text in extra_kinds.items():
        parser.add_argument(
            f"--{kind}-trials", type=int, default=0, help=help_text
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
    results: list[TrialResult] = []
    for i in range(args.trials):
        mid_smo = args.mid_smo_every > 0 and i % args.mid_smo_every == 0
        results.append(
            harness.run_trial(args.base_seed + i, crash_mid_smo=mid_smo)
        )
    for kind in extra_kinds:
        count = getattr(args, f"{kind}_trials")
        results += [
            harness.run_trial(args.base_seed + i, kind) for i in range(count)
        ]

    print(render_table(trial_rows(results), title="chaos trials"))
    failed = [r for r in results if not r.ok]
    print(
        f"\n{len(results) - len(failed)}/{len(results)} trials ok, "
        f"{sum(r.faults_injected for r in results)} faults injected, "
        f"{sum(r.lost_commits for r in results)} commits lost to WAL "
        f"tail faults (correctly rolled back)"
    )
    batch = [r for r in results if r.kind == "batch"]
    if batch:
        fired = sum(r.crash != "end" for r in batch)
        print(
            f"batch trials: {fired}/{len(batch)} crashed inside a batch "
            f"at their scheduled point"
        )
    if args.protocol_checks:
        print(
            f"protocol checks: "
            f"{sum(r.protocol_violations for r in results)} hard "
            f"violations across {len(results)} trials"
        )
    for r in failed:
        print(f"\n{r.kind} seed {r.seed} FAILED:")
        if r.blackbox_path:
            print(f"  blackbox: {r.blackbox_path}")
        for line in r.fault_log:
            print(f"  fault: {line}")
        for err in r.errors:
            print(f"  error: {err}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
