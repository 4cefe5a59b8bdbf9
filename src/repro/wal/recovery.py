"""ARIES-style restart recovery (section 9).

Three passes over the surviving log:

* **Analysis** — rebuild the active-transaction table (losers), the
  dirty page table (what redo must look at), the tree catalog and the
  set of committed transactions (garbage collection consults it).  NSNs
  are LSNs (section 10.1), so they need no recovery of their own: a
  split after restart stamps an LSN above the surviving log.  With a
  checkpoint on record, ATT/DPT scanning starts at its ``begin_lsn``;
  without one, at LSN 1, which puts every page in the DPT from its
  first mention.  The catalog is collected from the whole log (cheap
  for an in-memory log, and equivalent to keeping it in the
  checkpoint).
* **Redo** — repeat history, but only the part the crash left undone:
  from the smallest recLSN on, a record (compensation records included)
  is looked at for an affected page only if the page is in the DPT and
  the record is at or above its recLSN, and re-applied only if the
  page's ``page_lsn`` is older.  Pages outside the DPT are never read;
  only images a record was applied to are written back.
* **Undo** — roll back loser transactions through the same undo
  executor used at runtime, with ``in_restart`` set: logical undo of
  leaf records re-locates leaves via rightlinks but performs **no
  structure modifications** (section 9.2); interrupted structure
  modifications (split records without their closing DummyClr) are
  undone page-oriented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING, Mapping

from repro.errors import RecoveryError, TornPageError
from repro.gist.extension import GiSTExtension
from repro.gist.tree import GiST
from repro.storage.page import Page, PageId, PageKind
from repro.wal.records import (
    AbortRecord,
    CheckpointRecord,
    CommitRecord,
    EndRecord,
    FreePageRecord,
    GetPageRecord,
    NULL_LSN,
    TreeCreateRecord,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.storage.disk import PageStore
    from repro.wal.log import LogManager


def rebuild_page_from_log(
    log: "LogManager",
    store: "PageStore",
    pid: PageId,
    upto: int | None = None,
) -> Page | None:
    """Reconstruct a page image by replaying its full WAL history.

    Every change to a page is logged before the page can reach disk
    (the WAL rule), so replaying all records affecting ``pid`` from the
    start of the log — onto a fresh empty page — reproduces its latest
    logged image.  This is the self-healing path for a torn page whose
    WAL coverage allows full redo: the paper's page-LSN reasoning
    (Table 1, §9) run from LSN 1.

    ``upto`` bounds the replay (exclusive of higher LSNs); ``None``
    replays the whole log.  Returns ``None`` when no record affects the
    page — nothing to rebuild from, so the caller must surface the
    corruption instead.
    """
    page: Page | None = None
    for record in log.records_from(1):
        if upto is not None and record.lsn > upto:
            break
        if isinstance(record, (GetPageRecord, FreePageRecord)):
            continue
        if pid not in record.affected_pages():
            continue
        if page is None:
            page = Page(
                pid=pid, kind=PageKind.LEAF, capacity=store.page_capacity
            )
        record.redo_page(page)
        page.page_lsn = record.lsn
    return page


@dataclass
class RecoveryReport:
    """What restart recovery did (inspected by tests and benchmarks)."""

    analyzed_records: int = 0
    redo_start_lsn: int = 0
    redone_records: int = 0
    pages_rebuilt: int = 0
    losers: list[int] = field(default_factory=list)
    winners: list[int] = field(default_factory=list)
    undone_records: int = 0
    trees: list[str] = field(default_factory=list)
    #: LSN of the last log record that survived checksum verification
    #: (the durable prefix recovery replayed)
    valid_end_lsn: int = 0
    #: records discarded by truncation at the first bad checksum
    tail_records_dropped: int = 0
    #: torn pages detected during redo and rebuilt by full log replay
    torn_pages_healed: int = 0
    #: ``begin_lsn`` of the checkpoint analysis started from (0: none)
    checkpoint_begin_lsn: int = 0
    #: page images redo read from the store / wrote back to it
    pages_read: int = 0
    pages_written: int = 0
    #: (record, page) pairs the dirty page table let redo pass over
    redo_skipped: int = 0


class RestartRecovery:
    """Run ARIES restart over a freshly reopened :class:`Database`."""

    def __init__(
        self, db: "Database", extensions: Mapping[str, GiSTExtension]
    ) -> None:
        self.db = db
        self.extensions = dict(extensions)
        self.report = RecoveryReport()

    def run(self) -> RecoveryReport:
        """Execute the three passes and return what they accomplished.

        Each pass is timed into a ``recovery.*_ns`` histogram, so
        crash-recovery benchmarks can break restart cost down by phase,
        and the counts land in the black box as one ``db.recovered``
        event.
        """
        metrics = self.db.metrics
        report = self.report
        metrics.counter("recovery.runs").inc()
        t0 = perf_counter_ns()
        # Self-healing pre-pass: a corrupt log tail (torn final log
        # write) is truncated at the first bad-checksum record, and the
        # valid prefix below is replayed — the ARIES treatment.
        valid_end, dropped = self.db.log.verify_and_truncate()
        report.valid_end_lsn = valid_end
        report.tail_records_dropped = dropped
        if dropped:
            metrics.counter("wal.tail_truncated_records").inc(dropped)
        att, dpt, start = self._analysis()
        self._rebuild_catalog()
        t1 = perf_counter_ns()
        metrics.histogram("recovery.analysis_ns").record(t1 - t0)
        self._redo(dpt, start)
        t2 = perf_counter_ns()
        metrics.histogram("recovery.redo_ns").record(t2 - t1)
        self._undo(att)
        self._finalize(att)
        metrics.histogram("recovery.undo_ns").record(perf_counter_ns() - t2)
        self.db.flightrec.record(
            "db.recovered",
            analyzed=report.analyzed_records,
            redone=report.redone_records,
            undone=report.undone_records,
            losers=sorted(report.losers),
            tail_dropped=report.tail_records_dropped,
            torn_healed=report.torn_pages_healed,
            pages_read=report.pages_read,
            pages_written=report.pages_written,
            redo_skipped=report.redo_skipped,
            checkpoint_begin_lsn=report.checkpoint_begin_lsn,
        )
        return report

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def _analysis(self) -> tuple[dict[int, int], dict[PageId, int], int]:
        """Returns the ATT, the DPT and the LSN their scan started at."""
        log = self.db.log
        att: dict[int, int] = {}
        dpt: dict[PageId, int] = {}
        committed: set[int] = set()
        aborted: set[int] = set()
        start = 1
        if log.master_lsn != NULL_LSN and log.master_lsn <= log.end_lsn:
            checkpoint = log.get(log.master_lsn)
            if isinstance(checkpoint, CheckpointRecord):
                att.update(checkpoint.att)
                dpt.update(checkpoint.dpt)
                # not the record's own LSN: the tables were read while
                # the log kept growing, and begin_lsn is where that began
                start = checkpoint.begin_lsn
                self.report.checkpoint_begin_lsn = start

        # Metadata sweep over the whole log: catalog, max xid, and
        # the committed/aborted xid sets (GC visibility needs the full
        # history, not just post-checkpoint commits).
        self._catalog: dict[str, TreeCreateRecord] = {}
        max_xid = 0
        for record in log.records_from(1):
            self.report.analyzed_records += 1
            max_xid = max(max_xid, record.xid)
            if isinstance(record, TreeCreateRecord):
                self._catalog[record.name] = record
            if record.lsn >= start:
                if record.xid != 0:
                    att[record.xid] = record.lsn
                for pid in record.affected_pages():
                    dpt.setdefault(pid, record.lsn)
            if isinstance(record, CommitRecord):
                committed.add(record.xid)
            elif isinstance(record, AbortRecord):
                aborted.add(record.xid)
            elif isinstance(record, EndRecord):
                att.pop(record.xid, None)
        # Committed transactions that logged their commit need no undo.
        for xid in committed:
            att.pop(xid, None)
        self._committed = committed
        self._aborted = aborted
        self._max_xid = max_xid
        return att, dpt, start

    def _rebuild_catalog(self) -> None:
        for name, record in self._catalog.items():
            extension = self.extensions.get(name)
            if extension is None:
                raise RecoveryError(
                    f"no extension supplied for recovered tree {name!r}"
                )
            tree = GiST(
                self.db, name, extension, record.root_pid, unique=record.unique
            )
            self.db.trees[name] = tree
            self.report.trees.append(name)

    # ------------------------------------------------------------------
    # redo
    # ------------------------------------------------------------------
    def _redo(self, dpt: dict[PageId, int], start: int) -> None:
        """Repeat history for the pages in ``dpt``, from their recLSNs.

        A page outside the DPT, or a record below its page's recLSN,
        is on disk already and is passed over without touching the
        store (the ARIES redo rule).  A page the crash tore is still
        caught: it was being written, hence dirty, hence in the DPT,
        and its first redo candidate reads it (one torn earlier and
        checkpointed as clean is healed the same way by the pool, on
        its first fix).  ``start`` is where analysis began; with an
        empty DPT only the allocation records from there on are left
        to look at.  Written back are the images a record was applied
        to — which covers every rebuilt one: an image rebuilt for the
        record at ``lsn`` is below ``lsn`` by construction.
        """
        log, store, report = self.db.log, self.db.store, self.report
        report.redo_start_lsn = min(dpt.values(), default=start)
        images: dict[PageId, Page] = {}
        changed: set[PageId] = set()
        for record in log.records_from(report.redo_start_lsn):
            if isinstance(record, GetPageRecord):
                store.mark_allocated(record.page_id)
                continue
            if isinstance(record, FreePageRecord):
                store.mark_free(record.page_id)
                continue
            applied = False
            for pid in record.affected_pages():
                rec_lsn = dpt.get(pid)
                if rec_lsn is None or record.lsn < rec_lsn:
                    report.redo_skipped += 1
                    continue
                page = images.get(pid)
                if page is None:
                    page = images[pid] = self._image_for_redo(pid, record.lsn)
                if page.page_lsn < record.lsn:
                    record.redo_page(page)
                    page.page_lsn = record.lsn
                    changed.add(pid)
                    applied = True
            if applied:
                report.redone_records += 1
        for pid in sorted(changed):
            store.write(images[pid])
        report.pages_written = len(changed)

    def _image_for_redo(self, pid: PageId, lsn: int) -> Page:
        """The image the record at ``lsn`` is to be compared against:
        the page as stored, rebuilt from the log below ``lsn`` if it is
        torn, or empty if it never reached the store."""
        log, store, report = self.db.log, self.db.store, self.report
        page: Page | None = None
        if store.exists(pid):
            report.pages_read += 1
            try:
                return store.read(pid)
            except TornPageError:
                # A torn write reached disk.  The WAL covers the page's
                # whole history, so rebuild it by replaying every record
                # below this one — then let normal redo continue from
                # here.
                page = rebuild_page_from_log(log, store, pid, upto=lsn - 1)
                report.torn_pages_healed += 1
                metrics = self.db.metrics
                metrics.counter("storage.torn_pages_detected").inc()
                metrics.counter("storage.torn_pages_healed").inc()
        report.pages_rebuilt += 1
        if page is None:
            page = Page(
                pid=pid, kind=PageKind.LEAF, capacity=store.page_capacity
            )
        return page

    # ------------------------------------------------------------------
    # undo
    # ------------------------------------------------------------------
    def _undo(self, att: dict[int, int]) -> None:
        """Roll back every loser in one ARIES backward sweep.

        All losers are undone together, always taking the record with
        the highest LSN among every transaction's next-undo point — not
        transaction by transaction.  The interleaving matters: a loser's
        structure-modification undo (e.g. un-splitting a page from the
        record's stored entry list) must run *before* the lower-LSN
        undos of other losers whose entries that page image contains,
        or it would resurrect entries an earlier logical undo already
        removed.
        """
        log = self.db.log
        self.db.in_restart = True
        try:
            self.report.losers.extend(sorted(att))
            # every ATT entry has a backchain (checkpoints list no
            # transaction that never logged)
            todo = dict(att)
            finished: list[int] = []
            while todo:
                xid, lsn = max(todo.items(), key=lambda kv: kv[1])
                record = log.get(lsn)
                if record.undo_next is not None:
                    nxt = record.undo_next
                else:
                    if record.undoable:
                        log.set_last_lsn(xid, lsn)
                        self.db._undo_record(record, xid)
                        self.report.undone_records += 1
                    nxt = record.prev_lsn
                if nxt == NULL_LSN:
                    del todo[xid]
                    finished.append(xid)
                else:
                    todo[xid] = nxt
            for xid in finished:
                log.append(EndRecord(xid=xid))
        finally:
            self.db.in_restart = False

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def _finalize(self, att: dict[int, int]) -> None:
        txns = self.db.txns
        txns.committed_xids |= self._committed
        txns.aborted_xids |= self._aborted | set(att)
        self.report.winners = sorted(self._committed)
        txns.restore_counters(self._max_xid + 1)
        self.db.pool.flush_all()
        self.db.log.flush()
