"""The log manager.

An append-only, in-memory write-ahead log with an explicit durability
boundary: records with ``lsn <= flushed_lsn`` survive a crash, the rest
are lost (:meth:`LogManager.crash` truncates to the boundary).  LSNs are
monotonically increasing integers starting at 1, which is what lets the
tree use them as its NSNs (the section 10.1 optimization).

The manager keeps the per-transaction backchain (``prev_lsn``) and
implements **nested top actions**: :meth:`begin_nta` memorizes the
transaction's current last LSN and :meth:`end_nta` writes a
:class:`~repro.wal.records.DummyClr` whose ``undo_next`` points back to
it, so a later rollback of the transaction skips the whole structure
modification (section 9.1).
"""

from __future__ import annotations

import threading
from time import perf_counter_ns
from typing import Iterator, Sequence

from repro.errors import WALError
from repro.obs.metrics import MetricsRegistry
from repro.wal.records import (
    NULL_LSN,
    DummyClr,
    EndRecord,
    LogRecord,
)


class LogStats:
    """Counters the benchmarks read off the log manager.

    The ints are only ever mutated while the log mutex is held, so plain
    ``+=`` is exact; a registry reads them through ``wal.*`` gauges
    evaluated at snapshot time, making an append cost zero registry
    calls on the hot path.  The flush-latency histogram stays a live
    registry instrument (a flush is an I/O, the clock read drowns).
    :meth:`bind` re-registers the gauges on a fresh registry — used when
    a surviving log manager is adopted by a new :class:`Database` after
    a crash — and since the totals live *here*, cumulative history is
    preserved for free (the latency histogram starts empty).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        #: mutated under the log mutex only
        self.appends = 0
        self.flushes = 0
        self.forced_records = 0
        self.group_commits = 0
        self._registry: MetricsRegistry | None = None
        self._bind(registry or MetricsRegistry())

    def _bind(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        registry.gauge("wal.appends", lambda: self.appends)
        registry.gauge("wal.flushes", lambda: self.flushes)
        registry.gauge("wal.forced_records", lambda: self.forced_records)
        registry.gauge("wal.group_commits", lambda: self.group_commits)
        self.flush_ns = registry.histogram("wal.flush_ns")

    def bind(self, registry: MetricsRegistry) -> None:
        """Re-register on ``registry``; totals carry over unchanged."""
        if registry is self._registry:
            return
        self._bind(registry)

    def note_append(self) -> None:
        """Count one appended record (log mutex held)."""
        self.appends += 1

    def note_flush(self) -> None:
        """Count one physical log force (log mutex held)."""
        self.flushes += 1

    def note_forced_record(self) -> None:
        """Count one individually forced record (log mutex held)."""
        self.forced_records += 1

    def note_group_commit(self) -> None:
        """Count one flush request absorbed by group commit (log mutex
        held)."""
        self.group_commits += 1

    def snapshot(self) -> dict[str, int]:
        """Thread-safe snapshot of the counters."""
        return {
            "appends": self.appends,
            "flushes": self.flushes,
            "forced_records": self.forced_records,
            "group_commits": self.group_commits,
        }


class LogManager:
    """Append-only WAL with per-transaction backchains and NTAs."""

    def __init__(
        self,
        flush_delay: float = 0.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        #: simulated latency of a log force (seconds); concurrent forces
        #: are coalesced (group commit), see :meth:`flush`
        self.flush_delay = flush_delay
        self.stats = LogStats(metrics)
        #: span tracker (Database(op_tracing=True)); the database
        #: assembly (re)assigns this on every build, so a restart with
        #: tracing toggled never keeps a stale tracker.  ``None`` keeps
        #: append/flush span-free.
        self.tracker = None
        self._mutex = threading.Lock()
        self._records: list[LogRecord] = []
        self._flushed_lsn = NULL_LSN
        #: True while one thread is performing the physical log force
        self._force_in_flight = False
        #: highest LSN requested by the group waiting for the next force
        self._pending_cover = NULL_LSN
        self._flush_done = threading.Condition(self._mutex)
        self._last_lsn_of: dict[int, int] = {}
        #: durable pointer to the most recent complete checkpoint
        self.master_lsn = NULL_LSN

    # ------------------------------------------------------------------
    # append / read
    # ------------------------------------------------------------------
    def _append_locked(self, record: LogRecord) -> int:
        lsn = len(self._records) + 1
        record.lsn = lsn
        record.prev_lsn = self._last_lsn_of.get(record.xid, NULL_LSN)
        record.stamp_checksum()
        self._records.append(record)
        if isinstance(record, EndRecord):
            # the transaction is over: nothing reads its backchain again
            self._last_lsn_of.pop(record.xid, None)
        else:
            self._last_lsn_of[record.xid] = lsn
        self.stats.note_append()
        return lsn

    def append(self, record: LogRecord) -> int:
        """Assign an LSN, backchain the record, checksum it, append it."""
        with self._mutex:
            lsn = self._append_locked(record)
        if self.tracker is not None:
            self.tracker.note_wal_append()
        return lsn

    def append_many(self, records: Sequence[LogRecord]) -> list[int]:
        """Append a batch of records under one mutex acquisition.

        The batched emission path for multi-record operations
        (``multi_put`` leaf runs, bulk-load fills): per-transaction
        backchains, checksums and stats come out exactly as ``N``
        :meth:`append` calls would produce, but the log mutex is taken
        once for the whole batch.  Returns the assigned LSNs in order.
        """
        if not records:
            return []
        with self._mutex:
            lsns = [self._append_locked(record) for record in records]
        if self.tracker is not None:
            for _ in lsns:
                self.tracker.note_wal_append()
        return lsns

    def get(self, lsn: int) -> LogRecord:
        """The record at ``lsn`` (raises for out-of-range LSNs)."""
        with self._mutex:
            if not 1 <= lsn <= len(self._records):
                raise WALError(f"no log record with lsn {lsn}")
            return self._records[lsn - 1]

    def records_from(
        self, lsn: int = 1, batch: int = 256
    ) -> Iterator[LogRecord]:
        """Iterate records in LSN order starting at ``lsn``.

        The log mutex is taken once per ``batch`` records instead of
        once per record, which is what restart recovery's full-log scan
        pays.  Records appended *while* iterating are still observed:
        a batch only ever contains records that already existed when it
        was grabbed, so anything newer has a higher LSN and is picked up
        by a later batch.
        """
        index = max(lsn, 1) - 1
        batch = max(batch, 1)
        while True:
            with self._mutex:
                chunk = self._records[index : index + batch]
            if not chunk:
                return
            yield from chunk
            index += len(chunk)

    @property
    def end_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        with self._mutex:
            return len(self._records)

    def last_lsn_of(self, xid: int) -> int:
        """Head of the transaction's backchain (0 if it never logged)."""
        with self._mutex:
            return self._last_lsn_of.get(xid, NULL_LSN)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def flush(self, lsn: int | None = None) -> None:
        """Force the log to disk up to ``lsn`` (default: everything).

        Group commit: when a force is already in flight that will cover
        this request's LSN, the caller waits for it instead of issuing
        its own I/O — N concurrent committers share one force.
        """
        tracker = self.tracker
        if tracker is None:
            self._flush(lsn)
            return
        # With op tracing on, the whole flush — leading, riding along
        # or finding the LSN already durable — is the operation's WAL
        # wait and is attributed to its span.
        t0 = perf_counter_ns()
        try:
            self._flush(lsn)
        finally:
            tracker.add_wal(perf_counter_ns() - t0)

    def _flush(self, lsn: int | None = None) -> None:
        rode_along = False
        with self._mutex:
            target = len(self._records) if lsn is None else min(
                lsn, len(self._records)
            )
            if target <= self._flushed_lsn:
                return
            self._pending_cover = max(self._pending_cover, target)
            while True:
                if target <= self._flushed_lsn:
                    if rode_along:
                        self.stats.note_group_commit()
                    return
                if not self._force_in_flight:
                    break  # become the leader of the next group
                rode_along = True
                # Woken exactly once per completed force — the leader's
                # finally-block always notifies under the mutex, so no
                # timeout/poll is needed here.
                self._flush_done.wait()
            # Leader: one force covers every request gathered so far
            # (the group); later arrivals re-register for the next one.
            self._force_in_flight = True
            cover = self._pending_cover
            self._pending_cover = NULL_LSN
        t0 = perf_counter_ns()
        try:
            if self.flush_delay > 0.0:
                threading.Event().wait(self.flush_delay)
        finally:
            with self._mutex:
                # clamp: a crash() racing the force may have truncated
                # the log below the cover this force was issued for
                cover = min(cover, len(self._records))
                self._flushed_lsn = max(self._flushed_lsn, cover)
                self.stats.note_flush()
                self.stats.flush_ns.record(perf_counter_ns() - t0)
                if rode_along:
                    self.stats.note_group_commit()
                self._force_in_flight = False
                self._flush_done.notify_all()

    @property
    def flushed_lsn(self) -> int:
        """The durability boundary: records at or below survive a crash."""
        with self._mutex:
            return self._flushed_lsn

    def clone_prefix(self, length: int) -> "LogManager":
        """A new, independent log containing the first ``length`` records
        (all marked durable).

        Recovery-testing utility: restart can be exercised against
        *every* possible crash point of a recorded history by cloning
        each prefix ("the disk survived exactly this much of the log").
        Records are deep-copied so redo/undo against the clone can never
        disturb the original.
        """
        import copy

        clone = LogManager(flush_delay=self.flush_delay)
        with self._mutex:
            prefix = copy.deepcopy(self._records[:length])
        clone._records = prefix
        clone._flushed_lsn = len(prefix)
        return clone

    def crash(self) -> None:
        """Discard the unflushed tail, as a power failure would."""
        with self._mutex:
            del self._records[self._flushed_lsn :]
            self._last_lsn_of.clear()
            # The backchain heads are rebuilt by restart analysis; runtime
            # append after a crash only happens via recovery, which
            # repopulates them through set_last_lsn().

    # ------------------------------------------------------------------
    # fault injection & self-healing (DESIGN.md §9)
    # ------------------------------------------------------------------
    def torn_tail_loss(self, count: int, floor: int = 0) -> int:
        """Crash-time fault: drop up to ``count`` records off the tail.

        Models a torn final log write whose sectors never hit the
        platter even though the flush was acknowledged.  Never reaches
        at or below ``floor`` (the highest LSN any persisted page or
        checkpoint pointer depends on — those records were durably
        written *before* the dependent state, so a torn last write
        cannot have affected them).  Returns how many records were
        actually dropped.
        """
        with self._mutex:
            keep = max(floor, len(self._records) - max(count, 0))
            dropped = len(self._records) - keep
            if dropped <= 0:
                return 0
            del self._records[keep:]
            self._flushed_lsn = min(self._flushed_lsn, keep)
            if self.master_lsn > keep:
                self.master_lsn = NULL_LSN
            return dropped

    def corrupt_tail_record(self, back: int, floor: int = 0) -> int | None:
        """Crash-time fault: flip the checksum of a tail record.

        ``back`` indexes from the end (0 = last record).  Returns the
        corrupted record's LSN, or ``None`` when the target would fall
        at or below ``floor`` (see :meth:`torn_tail_loss`) or the log is
        too short.  The record stays in the log — detection is restart
        recovery's job (:meth:`verify_and_truncate`).
        """
        with self._mutex:
            idx = len(self._records) - 1 - max(back, 0)
            if idx < 0 or idx + 1 <= floor:
                return None
            record = self._records[idx]
            record.checksum = (record.checksum or 0) ^ 0x5A5A5A5A
            return record.lsn

    def verify_and_truncate(self) -> tuple[int, int]:
        """Truncate the log at the first record that fails its checksum.

        Returns ``(valid_end_lsn, dropped)``.  Restart recovery calls
        this before analysis: everything from the first bad record on is
        an unrecoverable torn tail and is discarded, and recovery
        replays the valid prefix — the ARIES treatment of a torn log
        write.  A clean log returns ``(end_lsn, 0)`` without modifying
        anything.
        """
        with self._mutex:
            bad_index: int | None = None
            for i, record in enumerate(self._records):
                if not record.verify_checksum():
                    bad_index = i
                    break
            if bad_index is None:
                return len(self._records), 0
            dropped = len(self._records) - bad_index
            del self._records[bad_index:]
            self._flushed_lsn = min(self._flushed_lsn, bad_index)
            if self.master_lsn > bad_index:
                self.master_lsn = NULL_LSN
            return bad_index, dropped

    def set_last_lsn(self, xid: int, lsn: int) -> None:
        """Restore a transaction's backchain head (restart analysis)."""
        with self._mutex:
            self._last_lsn_of[xid] = lsn

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Re-home the ``wal.*`` counters onto ``registry``.

        Called when a log manager that survived a crash is adopted by a
        fresh :class:`~repro.database.Database`; counter totals carry
        over so the WAL history stays cumulative across restarts.
        """
        self.stats.bind(registry)

    # ------------------------------------------------------------------
    # nested top actions (section 9.1)
    # ------------------------------------------------------------------
    def begin_nta(self, xid: int) -> int:
        """Start an atomic action: memorize the rollback re-entry point."""
        with self._mutex:
            return self._last_lsn_of.get(xid, NULL_LSN)

    def end_nta(self, xid: int, saved_lsn: int) -> int:
        """Commit an atomic action with a dummy CLR skipping over it."""
        record = DummyClr(xid=xid)
        record.undo_next = saved_lsn
        lsn = self.append(record)
        # Atomic actions are individually committed: force them so an
        # SMO whose pages reached disk can never lose its log suffix.
        self.flush(lsn)
        with self._mutex:
            self.stats.note_forced_record()
        return lsn
