"""The database assembly: storage + WAL + locks + transactions + trees.

A :class:`Database` wires together every substrate the paper assumes of
its host DBMS — buffer pool over a (simulated) disk, write-ahead log,
lock manager, transaction manager — and owns the catalog of GiST indexes
living on top of them.  It also implements the **undo executor**: the
dispatcher that rolls back one log record, page-oriented for structure
modifications and logical (through the owning tree) for leaf content
records (section 9.2, Table 1's undo column).

Crash simulation is two calls: :meth:`crash` discards all volatile state
(buffer pool, unflushed log tail), and :meth:`restart` builds a fresh
assembly over the surviving disk + log and runs ARIES-style restart
recovery on it.
"""

from __future__ import annotations

import os
from typing import Mapping

from repro.errors import ReproError, WALError
from repro.faults import FaultPlan
from repro.gist.extension import GiSTExtension
from repro.gist.tree import GiST
from repro.lock.manager import LockManager
from repro.lock.signaling import SignalingLocks
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracker
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import Page, PageKind
from repro.sync.hooks import Hooks
from repro.sync.latch import LatchMode
from repro.txn.manager import TransactionManager
from repro.txn.transaction import IsolationLevel, Transaction
from repro.wal.log import LogManager
from repro.wal.records import (
    NULL_LSN,
    AddLeafEntryRecord,
    CheckpointRecord,
    FreePageRecord,
    GetPageRecord,
    InternalEntryAddRecord,
    InternalEntryDeleteRecord,
    InternalEntryUpdateRecord,
    LogRecord,
    MarkLeafEntryRecord,
    PageImageClr,
    RightlinkUpdateRecord,
    RootReplaceRecord,
    RootSplitRecord,
    SplitRecord,
    TreeCreateRecord,
)

#: xid reserved for system activity (tree creation, checkpoints)
SYSTEM_XID = 0


class Database:
    """An embedded database instance hosting GiST indexes.

    Parameters
    ----------
    io_delay:
        Simulated disk latency per page read/write, in seconds.
    page_capacity:
        Entries per page (the tree fanout).
    pool_capacity:
        Buffer pool size in frames.
    lock_timeout:
        Backstop lock-wait timeout (deadlocks are detected eagerly; the
        timeout only catches bugs).  The chaos harness sets 5 s and the
        phantom campaign 20 s, so it stays a setting.
    flush_delay:
        Simulated latency of one log force, in seconds.
    hooks:
        The :class:`~repro.sync.hooks.Hooks` table tests use to force
        interleavings at named points; a private one when omitted.
    metrics_enabled:
        ``False`` builds the whole assembly over a disabled metrics
        registry: every instrument is a shared no-op and no clock is
        read on any hot path.  ``tests/obs/test_overhead.py``'s call
        budget measures both settings, so it stays a setting.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` injecting storage and
        WAL-tail faults on a seeded, deterministic schedule (DESIGN.md
        §9).  ``None`` disables all injection; the checksum machinery
        stays on either way.
    protocol_checks:
        ``True`` attaches a :class:`repro.analysis.lockdep.LockdepWitness`
        to the latches, the buffer-pool mutex, lock manager and page
        store: lock-order cycles (potential ABBA deadlocks),
        latch-held-across-I/O, latch-held-across-lock-wait and WAL-rule
        violations are recorded as they happen (``protocol_report()``).
        ``None`` (the default) reads the ``REPRO_PROTOCOL_CHECKS``
        environment variable; ``False``/unset keeps every hot path free
        of witness calls (counter-asserted in
        ``tests/storage/test_buffer.py``).
    op_tracing:
        ``True`` attaches a :class:`repro.obs.spans.SpanTracker`: every
        operation opens an :class:`~repro.obs.spans.OpSpan` and latches,
        the lock manager, the buffer pool and the WAL attribute their
        stalls to it (``op.<kind>.*`` in ``db.metrics.snapshot()``,
        pretty-printed by ``python -m repro.tools.trace``).  Off by
        default; when off, every subsystem holds ``None`` and the hot
        paths are span-free (counter-asserted in
        ``tests/obs/test_overhead.py``).
    flight_recorder:
        The always-on black box (:class:`repro.obs.flightrec.
        FlightRecorder`): a bounded per-thread ring of recent rare
        events (txn begin/commit/abort, SMOs, deadlock victims, lockdep
        hard violations, crash/restart), dumped as replayable JSONL by
        failed chaos trials.  On by default — it records only rare
        events; ``tests/obs/test_overhead.py``'s call budget measures
        both settings, so it stays a setting.

    The surviving disk, log and black box reach a new instance only
    through :meth:`restart` and :meth:`open_from_log`.
    """

    def __init__(
        self,
        *,
        io_delay: float = 0.0,
        page_capacity: int = 32,
        pool_capacity: int = 4096,
        lock_timeout: float | None = 30.0,
        flush_delay: float = 0.0,
        hooks: Hooks | None = None,
        metrics_enabled: bool = True,
        fault_plan: FaultPlan | None = None,
        protocol_checks: bool | None = None,
        op_tracing: bool = False,
        flight_recorder: bool = True,
    ) -> None:
        # what _reopen hands over from a crashed instance, if anything
        store, log, flightrec = vars(self).pop(
            "_survivors", (None, None, None)
        )
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.op_tracing = op_tracing
        #: per-op latency attribution; ``None`` when off — subsystems
        #: gate on the reference, paying one attribute-load + branch
        self.spans = SpanTracker(self.metrics) if op_tracing else None
        self.flight_recorder_enabled = flight_recorder
        if flightrec is not None:
            self.flightrec: FlightRecorder | None = flightrec
        elif flight_recorder:
            self.flightrec = FlightRecorder()
        else:
            self.flightrec = None
        self.pool_capacity = pool_capacity
        self.lock_timeout = lock_timeout
        self.store = store or PageStore(
            io_delay=io_delay,
            page_capacity=page_capacity,
            fault_plan=fault_plan,
        )
        #: the plan travels with the store across restarts; an explicit
        #: argument wins over (and is installed on) a supplied store
        if fault_plan is not None:
            self.store.fault_plan = fault_plan
        self.fault_plan = self.store.fault_plan
        self.store.bind_metrics(self.metrics)
        if log is None:
            self.log = LogManager(
                flush_delay=flush_delay, metrics=self.metrics
            )
        else:
            # A log that survived a crash re-homes its wal.* counters
            # here, carrying totals across the restart.
            self.log = log
            self.log.bind_metrics(self.metrics)
        # The log survives restarts: always (re)assign the tracker so a
        # restart without op_tracing drops the stale one.
        self.log.tracker = self.spans
        self.pool = BufferPool(
            self.store,
            capacity=pool_capacity,
            wal_flush=self.log.flush,
            metrics=self.metrics,
        )
        #: torn pages found at fix time are rebuilt by full WAL replay
        self.pool.page_rebuilder = self._rebuild_page
        self.pool.attach_span_tracker(self.spans)
        self.locks = LockManager(
            default_timeout=lock_timeout, metrics=self.metrics
        )
        self.locks.tracker = self.spans
        self.locks.flightrec = self.flightrec
        #: signaling locks on tree nodes (§7.2); nobody waits on them
        self.signaling = SignalingLocks(self.metrics)
        self.txns = TransactionManager(
            self.log, self.locks, self.signaling, predicates=self
        )
        self.txns.undo_executor = self._undo_record
        if protocol_checks is None:
            env = os.environ.get("REPRO_PROTOCOL_CHECKS", "")
            protocol_checks = env.lower() not in ("", "0", "false", "off")
        self.protocol_checks = bool(protocol_checks)
        if self.protocol_checks:
            from repro.analysis.lockdep import LockdepWitness

            self.witness = LockdepWitness(
                flushed_lsn=lambda: self.log.flushed_lsn,
                flightrec=self.flightrec,
            )
        else:
            self.witness = None
        # The store (and its witness binding) survives restarts: always
        # rebind/clear so a plain restart drops a stale witness.
        self.store.witness = self.witness
        self.pool.attach_witness(self.witness)
        self.locks.witness = self.witness
        self.hooks = hooks or Hooks()
        self.trees: dict[str, GiST] = {}
        self.metrics.gauge(
            "txn.active", lambda: len(self.txns.active_transactions())
        )
        self.metrics.gauge(
            "txn.committed", lambda: len(self.txns.committed_xids)
        )
        self.metrics.gauge(
            "txn.aborted", lambda: len(self.txns.aborted_xids)
        )
        #: set during restart recovery: logical undo must not trigger
        #: structure modifications (section 9.2)
        self.in_restart = False

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def create_tree(
        self,
        name: str,
        extension: GiSTExtension,
        *,
        unique: bool = False,
        nsn_source: str = "counter",
    ) -> GiST:
        """Create a new (empty) GiST index."""
        if name in self.trees:
            raise ReproError(f"tree {name!r} already exists")
        root_pid = self.store.allocate()
        self.log.append(GetPageRecord(xid=SYSTEM_XID, page_id=root_pid))
        record = TreeCreateRecord(
            xid=SYSTEM_XID,
            name=name,
            root_pid=root_pid,
            unique=unique,
            nsn_source=nsn_source,
        )
        root = Page(
            pid=root_pid,
            kind=PageKind.LEAF,
            capacity=self.store.page_capacity,
        )
        # resident and X-latched before its first record exists, like
        # any page a record dirties (BufferPool.dirty_page_table)
        frame = self.pool.adopt(root)
        frame.latch.acquire(LatchMode.X)
        try:
            lsn = self.log.append(record)
            record.redo_page(root)
            frame.mark_dirty(lsn)
        finally:
            frame.latch.release()
        self.log.flush(lsn)
        tree = GiST(
            self,
            name,
            extension,
            root_pid,
            unique=unique,
            nsn_source=nsn_source,
        )
        self.trees[name] = tree
        return tree

    def tree(self, name: str) -> GiST:
        """Look up a tree by name (raises for unknown names)."""
        try:
            return self.trees[name]
        except KeyError:
            raise ReproError(f"no tree named {name!r}") from None

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(
        self, isolation: IsolationLevel = IsolationLevel.REPEATABLE_READ
    ) -> Transaction:
        """Start a transaction at the given isolation level."""
        txn = self.txns.begin(isolation)
        if self.flightrec is not None:
            self.flightrec.record("txn.begin", xid=txn.xid)
        return txn

    def commit(self, txn: Transaction) -> int:
        """Commit ``txn``; returns its commit LSN, 0 if it wrote nothing.

        A transaction that logged forces its Commit record before its
        locks and predicates are released; one that did not appends
        nothing and forces nothing (DESIGN.md §5 "Commit protocol").
        """
        spans = self.spans
        span = spans.begin("commit") if spans is not None else None
        try:
            lsn = self.txns.commit(txn)
        finally:
            if spans is not None:
                spans.finish(span)
        if self.flightrec is not None:
            self.flightrec.record("txn.commit", xid=txn.xid)
        return lsn

    def rollback(self, txn: Transaction) -> None:
        """Abort ``txn``: undo all of its effects, then release everything."""
        spans = self.spans
        span = spans.begin("abort") if spans is not None else None
        try:
            self.txns.rollback(txn)
        finally:
            if spans is not None:
                spans.finish(span)
        if self.flightrec is not None:
            self.flightrec.record("txn.abort", xid=txn.xid)

    def commit_many(self, txns: "list[Transaction]") -> None:
        """Commit a batch of transactions under one shared log force."""
        spans = self.spans
        span = spans.begin("commit_many") if spans is not None else None
        try:
            self.txns.commit_many(txns)
        finally:
            if spans is not None:
                spans.finish(span)
        if self.flightrec is not None:
            for txn in txns:
                self.flightrec.record("txn.commit", xid=txn.xid)

    # duck-typed predicate registry for the transaction manager
    def release_transaction(self, xid: int) -> None:
        """Drop the transaction's predicates in every tree (txn-manager hook)."""
        for tree in self.trees.values():
            tree.predicates.release_transaction(xid)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Take a fuzzy checkpoint; returns its LSN.

        ``begin_lsn`` is read before either table and restart analysis
        starts there, so nothing has to be atomic: a record appended
        while the tables are being read is scanned, and one appended
        before is in them — the ATT because ``append`` updates the
        backchain map it is read from, the DPT because each frame is
        read under its latch (:meth:`BufferPool.dirty_page_table`).

        The ATT lists only transactions with a backchain: one that has
        not logged has nothing to undo, and if it stays read-only the
        log never mentions it again, so recovery could not tell it ended.
        """
        begin_lsn = self.log.end_lsn + 1
        att = {
            txn.xid: lsn
            for txn in self.txns.active_transactions()
            if (lsn := self.log.last_lsn_of(txn.xid)) != NULL_LSN
        }
        record = CheckpointRecord(
            xid=SYSTEM_XID,
            begin_lsn=begin_lsn,
            att=att,
            dpt=self.pool.dirty_page_table(),
        )
        lsn = self.log.append(record)
        self.log.flush(lsn)
        self.log.master_lsn = lsn
        return lsn

    # ------------------------------------------------------------------
    # crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state (buffer pool, unflushed log tail).

        The caller must have stopped worker threads; live transactions
        simply vanish, exactly as in a power failure, and will be rolled
        back by restart recovery.

        When a fault plan schedules WAL-tail faults, they fire here: the
        final log write may have been torn, losing or corrupting the
        last few durable records.  Faults never reach below the highest
        LSN any persisted page or checkpoint depends on — those records
        were written strictly before the dependent state (WAL rule), so
        a torn *last* write cannot have touched them.
        """
        if self.flightrec is not None:
            self.flightrec.record(
                "db.crash", flushed_lsn=self.log.flushed_lsn
            )
        self.log.crash()
        self.pool.crash()
        if self.fault_plan is not None:
            loss, corrupt = self.fault_plan.wal_tail_actions()
            if loss or corrupt is not None:
                floor = max(
                    self.store.max_durable_lsn(), self.log.master_lsn
                )
                if loss:
                    self.log.torn_tail_loss(loss, floor)
                if corrupt is not None:
                    self.log.corrupt_tail_record(corrupt, floor)

    def restart(
        self, extensions: Mapping[str, GiSTExtension], **config: object
    ) -> "Database":
        """Open a fresh database over this one's disk + log and recover.

        ``extensions`` maps tree names to extension instances (extension
        code cannot be stored in the log; the application supplies it at
        open time, as PostgreSQL does with operator classes).

        Restart models recovery onto *repaired* hardware: the fault
        plan's storage faults are deactivated (damage already persisted
        — torn images, lost tail records — remains, as state), so
        recovery itself runs deterministically and redo can finally
        rewrite pages a permanent write fault had poisoned.  The
        :class:`~repro.wal.recovery.RecoveryReport` is exposed as
        ``recovery_report`` on the returned database.
        """
        from repro.wal.recovery import RestartRecovery

        if self.fault_plan is not None:
            self.fault_plan.note_restart()
        config.setdefault("page_capacity", self.store.page_capacity)
        config.setdefault("metrics_enabled", self.metrics.enabled)
        config.setdefault("pool_capacity", self.pool_capacity)
        config.setdefault("lock_timeout", self.lock_timeout)
        config.setdefault("protocol_checks", self.protocol_checks)
        config.setdefault("op_tracing", self.op_tracing)
        config.setdefault("flight_recorder", self.flight_recorder_enabled)
        # The black box is the external observer, not volatile state:
        # the pre-crash instance carries over so a post-restart dump
        # still shows the events that led up to the crash.
        new_db = Database._reopen(self.store, self.log, self.flightrec, config)
        if new_db.flightrec is not None:
            new_db.flightrec.record("db.restart")
        new_db.recovery_report = RestartRecovery(new_db, extensions).run()
        return new_db

    @classmethod
    def _reopen(
        cls,
        store: PageStore | None,
        log: LogManager,
        flightrec: FlightRecorder | None,
        config: dict,
    ) -> "Database":
        """Build an instance over what a crash left behind — the disk
        (``None``: a fresh one), the log and the black box — configured
        by ``config``.  Recovery is the caller's next step."""
        db = cls.__new__(cls)
        db._survivors = (store, log, flightrec)
        db.__init__(**config)
        return db

    @classmethod
    def open_from_log(
        cls,
        log: LogManager,
        extensions: Mapping[str, GiSTExtension],
        **config: object,
    ) -> "Database":
        """Open a database over an *empty* store + a surviving log.

        The cross-process re-open path: a partition worker that was
        killed (SIGKILL — process memory, buffer pool and unflushed log
        tail all gone) is respawned with only the durable log records
        its WAL shadow preserved.  Restart recovery's redo pass
        reconstructs every page from its full WAL history onto the
        fresh store (the same machinery that heals a torn page), and
        undo rolls back the losers, so the recovered database is
        exactly the durable prefix's committed state.

        ``config`` must include ``page_capacity`` when the original
        database used a non-default one — the store that persisted it
        did not survive, so the caller (the cluster manifest) is the
        only witness.  The :class:`~repro.wal.recovery.RecoveryReport`
        is exposed as ``recovery_report`` on the returned database.
        """
        from repro.wal.records import FreePageRecord, GetPageRecord
        from repro.wal.recovery import RestartRecovery

        # A checkpoint's dirty page table describes a buffer pool over
        # a store that did not survive: without one, analysis puts every
        # page in the table from its first mention and redo rebuilds it.
        log.master_lsn = NULL_LSN
        db = cls._reopen(None, log, None, config)
        if db.flightrec is not None:
            db.flightrec.record("db.open_from_log", end_lsn=log.end_lsn)
        db.recovery_report = RestartRecovery(db, extensions).run()
        # Redo replays allocation records only from the redo point, which
        # is enough when the allocator state survived the crash — here it
        # did not, and a Get-Page record logged *below* the redo point
        # would leave ``_next_pid`` behind the rebuilt pages, letting the
        # next split re-allocate a live pid.  Replay the full allocation
        # history (recovery's own CLRs included) in LSN order.
        for record in log.records_from(1):
            if isinstance(record, GetPageRecord):
                db.store.mark_allocated(record.page_id)
            elif isinstance(record, FreePageRecord):
                db.store.mark_free(record.page_id)
        return db

    def protocol_report(self):
        """Lockdep report (``protocol_checks=True``), else ``None``."""
        return None if self.witness is None else self.witness.report()

    def _rebuild_page(self, pid: int) -> "Page | None":
        """Rebuild a torn page's image by replaying its WAL history.

        Wired into :attr:`BufferPool.page_rebuilder`: when a page fix
        detects a checksum mismatch, the pool calls back here, and the
        page is reconstructed from the log (its full history is WAL-
        covered) rather than fatally rejected.  Returns ``None`` when
        no log record mentions the page — unrecoverable, so the typed
        error surfaces instead.

        The replay is bounded at ``flushed_lsn``: the pool persists the
        healed image, and a durable page must never depend on log
        records that a crash could still discard (the WAL rule).  The
        torn image only reached disk after a flush that forced the log
        through its intended page_lsn, so the durable prefix always
        covers the full intended image.
        """
        from repro.wal.recovery import rebuild_page_from_log

        return rebuild_page_from_log(
            self.log, self.store, pid, upto=self.log.flushed_lsn
        )

    # ------------------------------------------------------------------
    # the undo executor (Table 1's undo column)
    # ------------------------------------------------------------------
    def _undo_record(self, record: LogRecord, txn: object) -> None:
        """Undo one log record on behalf of a rolling-back transaction.

        Leaf content records undo *logically* through the owning tree;
        structure-modification records undo page-oriented; page
        allocation records undo against the allocation map.  Every undo
        writes a compensation record whose ``undo_next`` skips the undone
        record on any repeated rollback attempt.
        """
        xid = getattr(txn, "xid", txn)
        if isinstance(record, AddLeafEntryRecord):
            tree = self.tree(record.tree)
            tree.undo_add_leaf_entry(record, xid, restart=self.in_restart)
        elif isinstance(record, MarkLeafEntryRecord):
            tree = self.tree(record.tree)
            tree.undo_mark_leaf_entry(record, xid, restart=self.in_restart)
        elif isinstance(record, (SplitRecord, RootSplitRecord)):
            pid = (
                record.orig_pid
                if isinstance(record, SplitRecord)
                else record.root_pid
            )
            with self.pool.fixed(pid, LatchMode.X) as frame:
                record.undo_page(frame.page)
                clr = PageImageClr(
                    xid=xid, page_id=pid, image=frame.page.snapshot()
                )
                clr.undo_next = record.prev_lsn
                lsn = self.log.append(clr)
                frame.mark_dirty(lsn)
        elif isinstance(record, RootReplaceRecord):
            # Bulk-load root attach: restore the pre-attach root image
            # so the subsequent GetPageRecord undos (lower LSNs in the
            # same backward sweep) free pages the root no longer
            # references.
            with self.pool.fixed(record.page_id, LatchMode.X) as frame:
                record.undo_page(frame.page)
                clr = PageImageClr(
                    xid=xid,
                    page_id=record.page_id,
                    image=frame.page.snapshot(),
                )
                clr.undo_next = record.prev_lsn
                lsn = self.log.append(clr)
                frame.mark_dirty(lsn)
        elif isinstance(record, InternalEntryAddRecord):
            clr = InternalEntryDeleteRecord(
                xid=xid,
                page_id=record.page_id,
                pred=record.pred,
                child=record.child,
            )
            self._apply_page_clr(record, clr)
        elif isinstance(record, InternalEntryUpdateRecord):
            clr = InternalEntryUpdateRecord(
                xid=xid,
                page_id=record.page_id,
                child=record.child,
                new_bp=record.old_bp,
                old_bp=record.new_bp,
            )
            self._apply_page_clr(record, clr)
        elif isinstance(record, InternalEntryDeleteRecord):
            clr = InternalEntryAddRecord(
                xid=xid,
                page_id=record.page_id,
                pred=record.pred,
                child=record.child,
            )
            self._apply_page_clr(record, clr)
        elif isinstance(record, RightlinkUpdateRecord):
            clr = RightlinkUpdateRecord(
                xid=xid,
                page_id=record.page_id,
                new_rightlink=record.old_rightlink,
                old_rightlink=record.new_rightlink,
            )
            self._apply_page_clr(record, clr)
        elif isinstance(record, GetPageRecord):
            clr = FreePageRecord(xid=xid, page_id=record.page_id)
            clr.undo_next = record.prev_lsn
            self.log.append(clr)
            self.store.mark_free(record.page_id)
            if self.pool.resident(record.page_id):
                self.pool.drop(record.page_id)
        elif isinstance(record, FreePageRecord):
            clr = GetPageRecord(xid=xid, page_id=record.page_id)
            clr.undo_next = record.prev_lsn
            self.log.append(clr)
            self.store.mark_allocated(record.page_id)
        else:
            raise WALError(
                f"no undo action for record type {record.type_name()}"
            )

    def _apply_page_clr(self, record: LogRecord, clr: LogRecord) -> None:
        clr.undo_next = record.prev_lsn
        with self.pool.fixed(clr.page_id, LatchMode.X) as frame:
            lsn = self.log.append(clr)
            clr.redo_page(frame.page)
            frame.mark_dirty(lsn)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One aggregated statistics snapshot across every subsystem."""
        return {
            "io": self.store.stats.snapshot(),
            "buffer": {
                "hits": self.pool.hits,
                "misses": self.pool.misses,
                "evictions": self.pool.evictions,
                "dirty": self.pool.dirty_count(),
            },
            "log": {
                **self.log.stats.snapshot(),
                "end_lsn": self.log.end_lsn,
                "flushed_lsn": self.log.flushed_lsn,
            },
            "locks": {
                **self.locks.stats.snapshot(),
                "signaling_takes": self.signaling.takes,
                "signaling_held": len(self.signaling),
            },
            "txns": {
                "active": len(self.txns.active_transactions()),
                "committed": len(self.txns.committed_xids),
                "aborted": len(self.txns.aborted_xids),
            },
            "trees": {
                name: {
                    **tree.stats.snapshot(),
                    "predicates": tree.predicates.stats.snapshot(),
                    "nsn_reads": tree.nsn.global_reads,
                }
                for name, tree in self.trees.items()
            },
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Clean shutdown: flush everything, then checkpoint.

        In that order the checkpoint's dirty page table is empty, and a
        restart from it reads and writes no page.
        """
        self.pool.flush_all()
        self.checkpoint()
        self.log.flush()
