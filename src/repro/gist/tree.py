"""The concurrent, recoverable GiST (sections 3 and 5–9 of the paper).

This module implements the tree template: insertion (Figure 4), deletion
by logical delete (section 7), unique-index insertion (section 8), and
the structure-modification machinery — node split with NSN/rightlink
juggling (section 3), recursive splitting, root split, and bottom-up BP
propagation with predicate percolation.  Search lives in
:mod:`repro.gist.cursor`, garbage collection / node deletion in
:mod:`repro.gist.maintenance`.

Protocol rules enforced throughout:

* **No latch is held across an I/O or a lock wait.**  Buffer misses pay
  their I/O inside :meth:`BufferPool.pin`, before the latch is taken;
  every code path that must block on a lock or a predicate owner first
  releases its latches and re-validates afterwards via NSN comparison
  and rightlink traversal.
* **No latch coupling during descent** — missed splits are compensated
  by following rightlinks (section 3), with one exception the paper also
  makes: a pointer is *stacked* (and its signaling lock taken) while the
  node it was read from is still latched, which closes the race against
  node deletion.
* **Structure modifications are atomic actions** (nested top actions,
  section 9.1): individually committed, two-phase-latched, and invisible
  to the rollback of the transaction that executed them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import TYPE_CHECKING, Sequence

from repro.errors import (
    KeyNotFoundError,
    RecoveryError,
    ReproError,
    StorageFaultError,
    UniqueViolationError,
)
from repro.gist.extension import GiSTExtension
from repro.gist.nsn import CounterNSN, LSNBasedNSN, NSNSource
from repro.gist.stack import StackEntry
from repro.lock.modes import LockMode
from repro.obs.metrics import MetricsRegistry
from repro.predicate.manager import (
    PredicateKind,
    PredicateLock,
    PredicateManager,
)
from repro.storage.buffer import Frame
from repro.storage.page import (
    NO_PAGE,
    InternalEntry,
    LeafEntry,
    Page,
    PageId,
    PageKind,
)
from repro.sync.latch import LatchMode
from repro.txn.transaction import Transaction
from repro.wal.records import (
    AddLeafEntryRecord,
    GarbageCollectionRecord,
    GetPageRecord,
    InternalEntryAddRecord,
    InternalEntryUpdateRecord,
    MarkLeafEntryRecord,
    PageImageClr,
    RemoveLeafEntryClr,
    RootReplaceRecord,
    RootSplitRecord,
    SplitRecord,
    UnmarkLeafEntryClr,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import Database


class TreeStats:
    """Operation counters exposed to the benchmark harness.

    Dual-homed: the tree keeps its own plain-int counters (what tests
    and the harness read as ``tree.stats.splits``) and mirrors every
    bump into shared ``gist.*`` counters on the database's metrics
    registry, so multi-tree workloads aggregate naturally in
    ``db.metrics.snapshot()``.
    """

    FIELDS = (
        "searches",
        "inserts",
        "deletes",
        "splits",
        "root_splits",
        "bp_updates",
        "rightlink_follows",
        "predicate_blocks",
        "gc_runs",
        "gc_entries",
        "node_deletes",
        "parent_redescents",
        "nsn_restarts",
        "drain_waits",
        "batch_ops",
        "batch_keys",
        "batch_leaf_runs",
        "batch_descents_saved",
        "bulk_loads",
        "bulk_pages_built",
    )

    #: registry names diverging from the plain ``gist.<field>`` scheme
    _NAME_OVERRIDES = {
        "nsn_restarts": "gist.restarts.nsn_mismatch",
        "drain_waits": "gist.drain.waits",
    }

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        registry = registry or MetricsRegistry()
        self._counters = {}
        for field in self.FIELDS:
            setattr(self, field, 0)
            name = self._NAME_OVERRIDES.get(field, f"gist.{field}")
            self._counters[field] = registry.counter(name)

    def bump(self, field: str, amount: int = 1) -> None:
        """Increment a named counter (local and registry-shared)."""
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)
        self._counters[field].inc(amount)

    def snapshot(self) -> dict[str, int]:
        """Thread-safe snapshot of the per-tree counters."""
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}


class GiST:
    """A concurrent, recoverable Generalized Search Tree.

    Created through :meth:`repro.database.Database.create_tree`; all
    operations run on behalf of a :class:`~repro.txn.Transaction`.
    """

    def __init__(
        self,
        db: "Database",
        name: str,
        extension: GiSTExtension,
        root_pid: PageId,
        *,
        unique: bool = False,
        nsn_source: str = "counter",
    ) -> None:
        self.db = db
        self.name = name
        self.ext = extension
        self.root_pid = root_pid
        self.unique = unique
        self.predicates = PredicateManager(extension.consistent)
        self.metrics = db.metrics
        self.stats = TreeStats(self.metrics)
        self._h_search_ns = self.metrics.histogram("gist.op.search_ns")
        self._h_insert_ns = self.metrics.histogram("gist.op.insert_ns")
        self._h_delete_ns = self.metrics.histogram("gist.op.delete_ns")
        if nsn_source == "lsn":
            self.nsn: NSNSource = LSNBasedNSN(db.log)
        elif nsn_source == "counter":
            self.nsn = CounterNSN()
        else:
            raise ReproError(f"unknown nsn_source {nsn_source!r}")
        self.nsn_source = nsn_source

    # ------------------------------------------------------------------
    # lock naming
    # ------------------------------------------------------------------
    @staticmethod
    def rid_lock(rid: object) -> tuple:
        """Lock name of a data record (data-only locking, §4.1 fn. 4)."""
        return ("rid", rid)

    def node_lock(self, pid: PageId) -> tuple:
        """Signaling-lock name of a tree node (section 7.2)."""
        return ("node", self.name, pid)

    # ------------------------------------------------------------------
    # signaling-lock helpers
    # ------------------------------------------------------------------
    def _stack_pointer(
        self, txn: Transaction, pid: PageId, memo: int
    ) -> StackEntry:
        """Take a signaling lock and build a stack entry for ``pid``.

        Must be called while the node the pointer was read from is still
        latched, which makes the acquisition race-free against node
        deletion (the deleter needs that node's X latch to unlink).
        """
        self.db.locks.acquire(txn.xid, self.node_lock(pid), LockMode.S)
        txn.note_signaling(self.node_lock(pid))
        return StackEntry(pid, memo)

    def _release_signaling(self, txn: Transaction, pid: PageId) -> None:
        """Release one signaling-lock count after visiting ``pid``,
        unless a savepoint or the end-of-transaction rule pins it."""
        name = self.node_lock(pid)
        if not txn.may_release_signaling(name):
            return
        txn.drop_signaling(name)
        self.db.locks.release(txn.xid, name)

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    @contextmanager
    def _fault_cleanup(self):
        """Release leaked pins/latches when a storage fault unwinds.

        A :class:`~repro.errors.StorageFaultError` surfacing out of a
        page fix aborts the operation mid-descent, past frames it still
        holds pinned and latched; without cleanup the thread's next
        operation self-deadlocks re-acquiring its own latch.  Every
        public entry point (and the undo executor's leaf methods) runs
        under this guard.  No-op unless a fault plan is installed.
        """
        try:
            yield
        except StorageFaultError:
            self.db.pool.release_thread_fixes()
            raise

    def search(self, txn: Transaction, query: object) -> list[tuple]:
        """All ``(key, rid)`` pairs satisfying ``query`` (Figure 3)."""
        from repro.gist.cursor import SearchCursor

        spans = self.db.spans
        span = spans.begin("search", self.name) if spans is not None else None
        timed = self.metrics.enabled
        t0 = perf_counter_ns() if timed else 0
        cursor = SearchCursor(self, txn, query)
        try:
            with self._fault_cleanup():
                return cursor.fetch_all()
        finally:
            cursor.close()
            if timed:
                dur = perf_counter_ns() - t0
                self._h_search_ns.record(dur)
                self.metrics.tracer.record_span(
                    "gist.search", dur, tree=self.name
                )
            if spans is not None:
                spans.finish(span)

    def open_cursor(self, txn: Transaction, query: object):
        """An incremental search cursor (restorable across savepoints)."""
        from repro.gist.cursor import SearchCursor

        return SearchCursor(self, txn, query)

    def insert(self, txn: Transaction, key: object, rid: object) -> None:
        """Insert a ``(key, rid)`` pair (Figure 4; section 6 or 8)."""
        txn.require_active()
        key = self.ext.normalize_key(key)
        spans = self.db.spans
        span = spans.begin("insert", self.name) if spans is not None else None
        timed = self.metrics.enabled
        t0 = perf_counter_ns() if timed else 0
        try:
            if self.unique:
                with self._fault_cleanup():
                    self._insert_unique(txn, key, rid)
            else:
                # Phase 1: X-lock the data record before touching the tree.
                self.db.locks.acquire(
                    txn.xid, self.rid_lock(rid), LockMode.X
                )
                plock = self.predicates.register(
                    txn.xid, self.ext.eq_query(key), PredicateKind.INSERT
                )
                try:
                    with self._fault_cleanup():
                        self._insert_located(txn, key, rid, plock)
                finally:
                    self.predicates.unregister(plock)
        finally:
            if spans is not None:
                spans.finish(span)
        self.stats.bump("inserts")
        if timed:
            dur = perf_counter_ns() - t0
            self._h_insert_ns.record(dur)
            self.metrics.tracer.record_span(
                "gist.insert", dur, tree=self.name
            )

    def count(self, txn: Transaction, query: object) -> int:
        """Number of entries satisfying ``query``.

        Isolation semantics are identical to :meth:`search` (under
        repeatable read the counted range is phantom-protected), only
        the materialized result list is avoided.
        """
        from repro.gist.cursor import SearchCursor

        spans = self.db.spans
        span = spans.begin("scan", self.name) if spans is not None else None
        cursor = SearchCursor(self, txn, query)
        try:
            with self._fault_cleanup():
                total = 0
                while cursor.fetch_next() is not None:
                    total += 1
                return total
        finally:
            cursor.close()
            if spans is not None:
                spans.finish(span)

    def delete_where(self, txn: Transaction, query: object) -> int:
        """Logically delete every entry satisfying ``query``.

        Runs as search-then-delete inside the caller's transaction: the
        search S locks upgrade to X as each entry is marked, and under
        repeatable read the emptied range stays phantom-free until
        commit.  Returns the number of entries deleted.
        """
        victims = self.search(txn, query)
        for key, rid in victims:
            self.delete(txn, key, rid)
        return len(victims)

    def delete(self, txn: Transaction, key: object, rid: object) -> None:
        """Logically delete a ``(key, rid)`` pair (section 7).

        The entry is only *marked*; it stays physically present so that
        repeatable-read scans block on the deleter's record lock, and
        the path to it is left unshrunk.  Physical removal happens later
        through garbage collection (:mod:`repro.gist.maintenance`).
        """
        txn.require_active()
        key = self.ext.normalize_key(key)
        spans = self.db.spans
        span = spans.begin("delete", self.name) if spans is not None else None
        timed = self.metrics.enabled
        t0 = perf_counter_ns() if timed else 0
        try:
            self.db.locks.acquire(txn.xid, self.rid_lock(rid), LockMode.X)
            with self._fault_cleanup():
                found = self._mark_deleted(txn, key, rid)
        finally:
            if spans is not None:
                spans.finish(span)
        if not found:
            raise KeyNotFoundError(
                f"({key!r}, {rid!r}) not found in tree {self.name!r}"
            )
        self.stats.bump("deletes")
        if timed:
            dur = perf_counter_ns() - t0
            self._h_delete_ns.record(dur)
            self.metrics.tracer.record_span(
                "gist.delete", dur, tree=self.name
            )

    # ------------------------------------------------------------------
    # batched operations (multi_get / multi_put / multi_delete)
    # ------------------------------------------------------------------
    def _organize_pairs(
        self, pairs: "Sequence[tuple]"
    ) -> tuple[list[tuple], bool]:
        """Normalize keys and sort the batch with the ``organize`` hook.

        Returns ``(pairs, organized)``: the flag records whether the
        extension actually imposed an order — consecutive pairs of an
        organized batch are close in the key domain, which licenses the
        greedy leaf-run extension in :meth:`_multi_put_located`.
        """
        pairs = [
            (self.ext.normalize_key(key), rid) for key, rid in pairs
        ]
        order = self.ext.organize([key for key, _ in pairs])
        if order is not None:
            pairs = [pairs[i] for i in order]
        return pairs, order is not None

    def multi_put(self, txn: Transaction, pairs: "Sequence[tuple]") -> int:
        """Batched insert: one descent per *leaf run* of the sorted batch.

        The batch is sorted with the extension's ``organize`` hook, then
        consumed run by run: each run locates its head's target leaf
        once and appends every subsequent pair the leaf can absorb —
        key covered by the leaf's BP, a free slot remaining — emitting
        the leaf's WAL records through the batched log path.  Locking
        is identical to ``len(pairs)`` point inserts: every RID is
        X-locked and every insert predicate registered *before* the
        tree is touched, the target leaf's signaling lock is pinned to
        end of transaction, and each pair checks the search predicates
        queued ahead of it.  Unique trees fall back to the per-key
        protocol (section 8's duplicate defence is inherently
        per-key).  Returns the count.
        """
        txn.require_active()
        pairs, organized = self._organize_pairs(pairs)
        if not pairs:
            return 0
        if self.unique:
            for key, rid in pairs:
                self.insert(txn, key, rid)
            return len(pairs)
        spans = self.db.spans
        span = (
            spans.begin("multi_put", self.name)
            if spans is not None
            else None
        )
        timed = self.metrics.enabled
        t0 = perf_counter_ns() if timed else 0
        plocks: list[PredicateLock] = []
        try:
            # Phase 1 for the whole batch: X-lock every data record and
            # register every insert predicate before touching the tree.
            for key, rid in pairs:
                self.db.locks.acquire(
                    txn.xid, self.rid_lock(rid), LockMode.X
                )
                plocks.append(
                    self.predicates.register(
                        txn.xid,
                        self.ext.eq_query(key),
                        PredicateKind.INSERT,
                    )
                )
            with self._fault_cleanup():
                self._multi_put_located(txn, pairs, plocks, organized)
        finally:
            for plock in plocks:
                self.predicates.unregister(plock)
            if spans is not None:
                spans.finish(span)
        self.stats.bump("inserts", len(pairs))
        self.stats.bump("batch_ops")
        self.stats.bump("batch_keys", len(pairs))
        if timed:
            dur = perf_counter_ns() - t0
            self._h_insert_ns.record(dur)
            self.metrics.tracer.record_span(
                "gist.multi_put", dur, tree=self.name, keys=len(pairs)
            )
        return len(pairs)

    def _multi_put_located(
        self,
        txn: Transaction,
        pairs: list[tuple],
        plocks: list[PredicateLock],
        organized: bool,
    ) -> None:
        """Consume the sorted batch one leaf run at a time.

        With an ``organized`` batch the run is extended greedily over
        consecutive pairs up to the leaf's free slots — BP coverage is
        an invariant maintained by expansion (:meth:`_update_bp`), not
        a placement requirement, and consecutive organized keys are
        close so one expansion covers the whole run (a B-tree append
        batch expands the rightmost leaf exactly as point inserts
        would).  Unorganized batches only extend runs over keys the
        leaf's BP already covers.
        """
        pool = self.db.pool
        i, n = 0, len(pairs)
        while i < n:
            key, rid = pairs[i]
            frame, stack = self._locate_leaf(txn, key)
            conflicts: list = []
            run = [(key, rid)]
            try:
                if frame.page.is_full:
                    self._gc_leaf(txn, frame)
                if frame.page.is_full:
                    self.db.hooks.fire(
                        "insert:before-split", pid=frame.page.pid
                    )
                    frame = self._split_atomic(
                        txn, frame, stack, key_hint=key
                    )
                page = frame.page
                # The run's leaf keeps its signaling lock to end of
                # transaction (section 7.2 / 9), like any insert target.
                leaf_name = self.node_lock(page.pid)
                if self.db.locks.held_mode(txn.xid, leaf_name) is None:
                    self.db.locks.acquire(txn.xid, leaf_name, LockMode.S)
                    txn.note_signaling(leaf_name)
                txn.pin_signaling_to_eot(leaf_name)
                # Extend the run: subsequent pairs the leaf can absorb
                # without a split (and, for unorganized batches,
                # without a BP expansion).
                free = page.capacity - len(page.entries)
                while (
                    i + len(run) < n
                    and len(run) < free
                    and (
                        organized
                        or self.ext.covers(
                            page.bp, pairs[i + len(run)][0]
                        )
                    )
                ):
                    run.append(pairs[i + len(run)])
                # One BP expansion up the tree covers the whole run.
                if page.bp is not None and any(
                    not self.ext.covers(page.bp, k) for k, _ in run
                ):
                    self._update_bp(
                        txn,
                        frame,
                        self.ext.union(
                            [page.bp] + [k for k, _ in run]
                        ),
                        stack,
                    )
                records = [
                    AddLeafEntryRecord(
                        xid=txn.xid,
                        tree=self.name,
                        page_id=page.pid,
                        nsn=page.nsn,
                        key=k,
                        rid=r,
                    )
                    for k, r in run
                ]
                lsns = self.db.log.append_many(records)
                for record in records:
                    record.redo_page(page)
                frame.mark_dirty(lsns[-1])
                # Phase 6 per pair: attach its insert predicate, collect
                # the search predicates queued ahead of it (FIFO).
                for offset, (k, _) in enumerate(run):
                    plock = plocks[i + offset]
                    self.predicates.attach(plock, page.pid)
                    conflicts.extend(
                        self.predicates.conflicting(
                            page.pid,
                            k,
                            kinds=(PredicateKind.SEARCH,),
                            exclude_owner=txn.xid,
                            before=plock,
                        )
                    )
                pid = page.pid
            finally:
                if frame.latch.held_by_me() is not None:
                    pool.unfix(frame)
                self._release_path_signaling(txn, stack)
            self.stats.bump("batch_leaf_runs")
            if len(run) > 1:
                self.stats.bump("batch_descents_saved", len(run) - 1)
            self.db.hooks.fire(
                "multi_put:run", pid=pid, count=len(run)
            )
            if conflicts:
                self.stats.bump("predicate_blocks")
                PredicateManager.wait_for_owners(
                    self.db.locks, txn.xid, conflicts
                )
            i += len(run)

    def multi_get(
        self, txn: Transaction, keys: "Sequence[object]"
    ) -> dict:
        """Batched point lookup: rids for each key, one shared descent.

        Returns ``{normalized key: [rids]}`` for every requested key
        (missing keys map to an empty list).  When the extension can
        express a multi-point predicate (:meth:`~repro.gist.extension.
        GiSTExtension.multi_eq_query`), the whole sorted batch is
        answered by a single cursor descent under one phantom-protected
        predicate — locking and isolation are exactly those of a
        :meth:`search` with that predicate.  Otherwise it degrades to
        one point search per distinct key.
        """
        results: dict = {
            self.ext.normalize_key(key): [] for key in keys
        }
        if not results:
            return results
        distinct = list(results)
        order = self.ext.organize(distinct)
        if order is not None:
            distinct = [distinct[i] for i in order]
        query = self.ext.multi_eq_query(distinct)
        if query is None:
            for key in distinct:
                for _, rid in self.search(txn, self.ext.eq_query(key)):
                    results[key].append(rid)
            return results
        self.stats.bump("batch_ops")
        self.stats.bump("batch_keys", len(distinct))
        if len(distinct) > 1:
            self.stats.bump("batch_descents_saved", len(distinct) - 1)
        for found_key, rid in self.search(txn, query):
            bucket = results.get(found_key)
            if bucket is not None:
                bucket.append(rid)
            else:
                # key types whose equality is not hash equality: route
                # through the extension's consistency test instead
                for key in distinct:
                    if self.ext.consistent(
                        found_key, self.ext.eq_query(key)
                    ):
                        results[key].append(rid)
        return results

    def multi_delete(
        self, txn: Transaction, pairs: "Sequence[tuple]"
    ) -> int:
        """Batched logical delete of ``(key, rid)`` pairs.

        X-locks every target RID up front, then marks all entries in
        one multi-point traversal (one descent visiting exactly the
        leaves the batch touches, batched WAL emission per leaf).
        Raises :class:`KeyNotFoundError` if any pair is absent — after
        marking everything that was found, mirroring a partially
        executed loop of :meth:`delete` calls.  Extensions without
        ``multi_eq_query`` degrade to the per-pair protocol.
        """
        txn.require_active()
        pairs, _ = self._organize_pairs(pairs)
        if not pairs:
            return 0
        spans = self.db.spans
        span = (
            spans.begin("multi_delete", self.name)
            if spans is not None
            else None
        )
        timed = self.metrics.enabled
        t0 = perf_counter_ns() if timed else 0
        try:
            query = self.ext.multi_eq_query([key for key, _ in pairs])
            if query is None:
                for key, rid in pairs:
                    self.delete(txn, key, rid)
                return len(pairs)
            for key, rid in pairs:
                self.db.locks.acquire(
                    txn.xid, self.rid_lock(rid), LockMode.X
                )
            targets = set(pairs)
            with self._fault_cleanup():
                found = self._mark_deleted_batch(txn, query, targets)
            missing = targets - found
            if missing:
                key, rid = min(missing, key=repr)
                raise KeyNotFoundError(
                    f"({key!r}, {rid!r}) not found in tree {self.name!r}"
                )
        finally:
            if spans is not None:
                spans.finish(span)
        self.stats.bump("deletes", len(pairs))
        self.stats.bump("batch_ops")
        self.stats.bump("batch_keys", len(pairs))
        if len(pairs) > 1:
            self.stats.bump("batch_descents_saved", len(pairs) - 1)
        if timed:
            dur = perf_counter_ns() - t0
            self._h_delete_ns.record(dur)
            self.metrics.tracer.record_span(
                "gist.multi_delete", dur, tree=self.name, keys=len(pairs)
            )
        return len(pairs)

    def _mark_deleted_batch(
        self, txn: Transaction, query: object, targets: set
    ) -> set:
        """Mark every targeted ``(key, rid)`` found under ``query``.

        The multi-point analogue of ``_mark_deleted``: one traversal,
        marking all of a leaf's targeted entries with a single batched
        WAL append.  Returns the set of pairs actually marked.
        """
        memo = self.nsn.current()
        stack = [self._stack_pointer(txn, self.root_pid, memo)]
        found: set = set()
        try:
            while stack and len(found) < len(targets):
                entry = stack.pop()
                self._mark_visit_batch(txn, entry, query, targets, found, stack)
                self._release_signaling(txn, entry.pid)
        finally:
            # Drain: release signaling locks of unvisited pointers.
            for entry in stack:
                self._release_signaling(txn, entry.pid)
        return found

    def _mark_visit_batch(
        self,
        txn: Transaction,
        entry: StackEntry,
        query: object,
        targets: set,
        found: set,
        stack: list[StackEntry],
    ) -> None:
        pool, log = self.db.pool, self.db.log
        pid = entry.pid
        last_handled = entry.memo
        # Peek at the node level with an S latch; leaves need X.
        frame = pool.fix(pid, LatchMode.S)
        try:
            if frame.page.is_leaf:
                # Trade the S latch for X; the unlatched window is
                # compensated by the NSN check below (see _mark_visit).
                pool.unfix(frame)
                frame = None
                frame = pool.fix(pid, LatchMode.X)
            page = frame.page
            if page.nsn > last_handled and page.rightlink != NO_PAGE:
                self.stats.bump("rightlink_follows")
                self.stats.bump("nsn_restarts")
                self.metrics.tracer.event(
                    "gist.restart.nsn_mismatch",
                    tree=self.name,
                    pid=page.pid,
                    memo=last_handled,
                    nsn=page.nsn,
                )
                stack.append(StackEntry(page.rightlink, last_handled))
            if page.is_leaf:
                victims = [
                    e
                    for e in page.entries
                    if not e.deleted
                    and (e.key, e.rid) in targets
                    and (e.key, e.rid) not in found
                ]
                if not victims:
                    return
                records = [
                    MarkLeafEntryRecord(
                        xid=txn.xid,
                        tree=self.name,
                        page_id=page.pid,
                        nsn=page.nsn,
                        key=e.key,
                        rid=e.rid,
                    )
                    for e in victims
                ]
                lsns = log.append_many(records)
                for record in records:
                    record.redo_page(page)
                frame.mark_dirty(lsns[-1])
                for e in victims:
                    found.add((e.key, e.rid))
                    self.db.hooks.fire(
                        "delete:marked", pid=page.pid, rid=e.rid
                    )
                return
            child_memo = self.nsn.memo_for_children(page)
            consistent = self.ext.consistent
            for node_entry in page.entries:
                if consistent(node_entry.pred, query):
                    stack.append(
                        self._stack_pointer(
                            txn, node_entry.child, child_memo
                        )
                    )
        finally:
            if frame is not None:
                pool.unfix(frame)

    # ------------------------------------------------------------------
    # bottom-up bulk load
    # ------------------------------------------------------------------
    def bulk_load(
        self,
        txn: Transaction,
        pairs: "Sequence[tuple]",
        *,
        fill: float = 0.75,
    ) -> int:
        """Build the tree bottom-up from a sorted batch (empty tree only).

        The structure — empty leaves at ``fill`` fraction of capacity,
        internal levels above them, and the root attach — is built in
        **one nested top action** while the root's X latch is held: a
        crash at any point either rolls the whole structure back (the
        undoable :class:`~repro.wal.records.RootReplaceRecord` restores
        the old root image before the Get-Page undos free the child
        pages) or, after the NTA committed, leaves a legal tree of empty
        leaves.  The entries themselves are then filled in
        transactionally per leaf through the batched log path, so a
        rollback of ``txn`` after the load logically deletes every
        entry but keeps the (empty) structure — exactly like any
        completed SMO.  Locking matches :meth:`multi_put`: all RIDs are
        X-locked and all insert predicates registered up front, and
        search predicates attached to the old root replicate to every
        built page.  When the tree is not an empty leaf (or the batch
        fits in the root) this degrades to the :meth:`multi_put` run
        protocol.  Returns the number of entries loaded.
        """
        if not 0.0 < fill <= 1.0:
            raise ValueError(f"fill factor {fill!r} outside (0, 1]")
        txn.require_active()
        pairs, organized = self._organize_pairs(pairs)
        if not pairs:
            return 0
        if self.unique:
            seen_keys: set = set()
            for key, _ in pairs:
                if key in seen_keys:
                    raise UniqueViolationError(key)
                seen_keys.add(key)
        spans = self.db.spans
        span = (
            spans.begin("bulk_load", self.name)
            if spans is not None
            else None
        )
        timed = self.metrics.enabled
        t0 = perf_counter_ns() if timed else 0
        plocks: list[PredicateLock] = []
        try:
            for key, rid in pairs:
                self.db.locks.acquire(
                    txn.xid, self.rid_lock(rid), LockMode.X
                )
                plocks.append(
                    self.predicates.register(
                        txn.xid,
                        self.ext.eq_query(key),
                        PredicateKind.INSERT,
                    )
                )
            with self._fault_cleanup():
                loaded = self._bulk_load_located(txn, pairs, plocks, fill)
                if not loaded:
                    if self.unique:
                        # The tree has prior content: the in-batch
                        # duplicate check above is not enough, run the
                        # full per-key duplicate protocol.
                        for i, (key, rid) in enumerate(pairs):
                            self.predicates.unregister(plocks[i])
                            plocks[i] = None  # type: ignore[call-overload]
                            self._insert_unique(txn, key, rid)
                    else:
                        self._multi_put_located(
                            txn, pairs, plocks, organized
                        )
        finally:
            for plock in plocks:
                if plock is not None:
                    self.predicates.unregister(plock)
            if spans is not None:
                spans.finish(span)
        self.stats.bump("inserts", len(pairs))
        self.stats.bump("batch_ops")
        self.stats.bump("batch_keys", len(pairs))
        if timed:
            dur = perf_counter_ns() - t0
            self._h_insert_ns.record(dur)
            self.metrics.tracer.record_span(
                "gist.bulk_load", dur, tree=self.name, keys=len(pairs)
            )
        return len(pairs)

    def _bulk_load_located(
        self,
        txn: Transaction,
        pairs: list[tuple],
        plocks: list[PredicateLock],
        fill: float,
    ) -> bool:
        """Build structure + fill leaves; False if the fast path is off.

        Returns ``False`` without touching the tree when the root is
        not an empty leaf or the batch fits in it — the caller then
        falls back to the run-based insert protocol.
        """
        pool, log = self.db.pool, self.db.log
        unfixed = False
        filled_leaves: list[tuple[PageId, list[tuple]]] = []
        root_frame = pool.fix(self.root_pid, LatchMode.X)
        try:
            root = root_frame.page
            if not root.is_leaf or root.entries:
                return False
            capacity = root.capacity
            per_leaf = max(2, min(capacity, int(capacity * fill)))
            if len(pairs) <= capacity:
                return False  # a single leaf suffices; no structure to build
            old_image = root.snapshot()

            # The whole structure is one atomic action (section 9.1).
            # Everything below is pure in-memory page building — the
            # only waits are log appends, which are legal under latches.
            saved = log.begin_nta(txn.xid)
            chunks = [
                pairs[i : i + per_leaf]
                for i in range(0, len(pairs), per_leaf)
            ]
            built: list[tuple[PageId, object]] = []
            level_nodes: list[tuple[PageId, object]] = []
            for chunk in chunks:
                bp = self.ext.union([key for key, _ in chunk])
                pid = self._bulk_build_page(
                    txn, PageKind.LEAF, 0, bp, [], capacity
                )
                built.append((pid, bp))
                level_nodes.append((pid, bp))
                filled_leaves.append((pid, chunk))
            level = 1
            while len(level_nodes) > capacity:
                parents: list[tuple[PageId, object]] = []
                for i in range(0, len(level_nodes), per_leaf):
                    group = level_nodes[i : i + per_leaf]
                    entries = [
                        InternalEntry(pred=bp, child=pid)
                        for pid, bp in group
                    ]
                    bp = self.ext.union([bp for _, bp in group])
                    pid = self._bulk_build_page(
                        txn, PageKind.INTERNAL, level, bp, entries, capacity
                    )
                    built.append((pid, bp))
                    parents.append((pid, bp))
                level_nodes = parents
                level += 1

            # Attach: swap the empty root leaf's image for an internal
            # node over the top level.  Root pid (and its BP: the whole
            # space) stay stable, so no descent ever sees a moved root.
            new_image = Page(
                pid=root.pid,
                kind=PageKind.INTERNAL,
                level=level,
                nsn=root.nsn,
                capacity=capacity,
                entries=[
                    InternalEntry(pred=bp, child=pid)
                    for pid, bp in level_nodes
                ],
            )
            record = RootReplaceRecord(
                xid=txn.xid,
                page_id=root.pid,
                new_image=new_image,
                old_image=old_image,
            )
            lsn = log.append(record)
            record.redo_page(root)
            root_frame.mark_dirty(lsn)
            # Inside the atomic action, after the attach: a crash hook
            # here exercises the RootReplaceRecord undo path.
            self.db.hooks.fire("bulk:attached", pid=root.pid)
            log.end_nta(txn.xid, saved)
            self.db.hooks.fire(
                "bulk:structure-built",
                pid=root.pid,
                pages=len(built),
                levels=level,
            )
            # Search predicates attached to the root-as-leaf must reach
            # every page of the new structure they are consistent with
            # (the attachment invariant) — same rule as a split.
            for pid, bp in built:
                self.predicates.replicate_for_split(root.pid, pid, bp)
            self.stats.bump("bulk_loads")
            self.metrics.tracer.event(
                "gist.bulk_load",
                tree=self.name,
                pages=len(built),
                levels=level,
                keys=len(pairs),
            )
            pool.unfix(root_frame)
            unfixed = True
        finally:
            if not unfixed and root_frame.latch.held_by_me() is not None:
                pool.unfix(root_frame)

        # Fill phase: transactional content, one batched append per leaf.
        conflicts: list = []
        offset = 0
        for pid, chunk in filled_leaves:
            frame = pool.fix(pid, LatchMode.X)
            try:
                page = frame.page
                leaf_name = self.node_lock(page.pid)
                if self.db.locks.held_mode(txn.xid, leaf_name) is None:
                    # A freshly built page cannot have a queued X waiter
                    # (drain deleters only probe no-wait), so this never
                    # blocks under the latch.
                    self.db.locks.acquire(
                        txn.xid, leaf_name, LockMode.S
                    )  # lint: allow(lock-wait-under-latch): never waits
                    txn.note_signaling(leaf_name)
                txn.pin_signaling_to_eot(leaf_name)
                records = [
                    AddLeafEntryRecord(
                        xid=txn.xid,
                        tree=self.name,
                        page_id=page.pid,
                        nsn=page.nsn,
                        key=k,
                        rid=r,
                    )
                    for k, r in chunk
                ]
                lsns = log.append_many(records)
                for rec in records:
                    rec.redo_page(page)
                frame.mark_dirty(lsns[-1])
                for j, (k, _) in enumerate(chunk):
                    plock = plocks[offset + j]
                    self.predicates.attach(plock, page.pid)
                    conflicts.extend(
                        self.predicates.conflicting(
                            page.pid,
                            k,
                            kinds=(PredicateKind.SEARCH,),
                            exclude_owner=txn.xid,
                            before=plock,
                        )
                    )
            finally:
                pool.unfix(frame)
            self.db.hooks.fire(
                "bulk:leaf-filled", pid=pid, count=len(chunk)
            )
            offset += len(chunk)
        if conflicts:
            self.stats.bump("predicate_blocks")
            PredicateManager.wait_for_owners(
                self.db.locks, txn.xid, conflicts
            )
        return True

    def _bulk_build_page(
        self,
        txn: Transaction,
        kind: PageKind,
        level: int,
        bp: object,
        entries: list,
        capacity: int,
    ) -> PageId:
        """Allocate, log and install one bulk-built page; returns its id.

        Logged as Get-Page (undoable: rollback of the enclosing NTA
        frees the page) plus a redo-only full image, the same shape the
        other structure modifications use.
        """
        pool, log, store = self.db.pool, self.db.log, self.db.store
        pid = store.allocate()
        log.append(GetPageRecord(xid=txn.xid, page_id=pid))
        page = Page(
            pid=pid,
            kind=kind,
            level=level,
            capacity=capacity,
            bp=bp,
            entries=entries,
        )
        record = PageImageClr(
            xid=txn.xid, page_id=pid, image=page.snapshot()
        )
        lsn = log.append(record)
        frame = pool.adopt(page)
        frame.mark_dirty(lsn)
        self.stats.bump("bulk_pages_built")
        return pid

    # ------------------------------------------------------------------
    # insertion machinery
    # ------------------------------------------------------------------
    def _insert_located(
        self,
        txn: Transaction,
        key: object,
        rid: object,
        plock: PredicateLock,
    ) -> None:
        """Phases 2–6 of section 6 (the tree part of an insertion)."""
        pool = self.db.pool
        frame, stack = self._locate_leaf(txn, key)
        self.db.hooks.fire("insert:leaf-located", pid=frame.page.pid)
        retry_wait: list | None = None
        try:
            if frame.page.is_full:
                # Opportunistic garbage collection may avoid the split
                # altogether (section 7.1).
                self._gc_leaf(txn, frame)
            if frame.page.is_full:
                self.db.hooks.fire("insert:before-split", pid=frame.page.pid)
                frame = self._split_atomic(txn, frame, stack, key_hint=key)
            page = frame.page
            # The target leaf's signaling lock is retained to end of
            # transaction (section 7.2 / section 9): the logical-undo
            # path to this leaf must stay intact.
            leaf_name = self.node_lock(page.pid)
            if self.db.locks.held_mode(txn.xid, leaf_name) is None:
                self.db.locks.acquire(txn.xid, leaf_name, LockMode.S)
                txn.note_signaling(leaf_name)
            txn.pin_signaling_to_eot(leaf_name)

            if self.unique:
                # Last-line duplicate defence (section 8): a racing
                # inserter of the same key whose entry or "= key"
                # predicate reached this leaf first.
                retry_wait = self._unique_leaf_check(
                    txn, frame, key, rid, plock
                )
            if retry_wait is None:
                self._perform_leaf_insert(txn, frame, stack, key, rid)
            conflicts = ()
            if retry_wait is None:
                # Phase 6: register our insert predicate, then check the
                # search predicates attached *ahead of it* (FIFO
                # fairness, section 10.3).
                self.predicates.attach(plock, page.pid)
                conflicts = self.predicates.conflicting(
                    page.pid,
                    key,
                    kinds=(PredicateKind.SEARCH,),
                    exclude_owner=txn.xid,
                    before=plock,
                )
            pid = page.pid
        finally:
            # A failure inside a split may have already handed the frame
            # off (e.g. a root split unfixes the old root); only release
            # what this thread still holds.
            if frame.latch.held_by_me() is not None:
                pool.unfix(frame)
            self._release_path_signaling(txn, stack)
        if retry_wait is not None:
            self.stats.bump("predicate_blocks")
            self._wait_for_txns(txn, retry_wait)
            raise _RetryUniqueProbe()
        self.db.hooks.fire("insert:done", pid=pid)
        if conflicts:
            self.stats.bump("predicate_blocks")
            PredicateManager.wait_for_owners(
                self.db.locks, txn.xid, conflicts
            )

    def _perform_leaf_insert(
        self,
        txn: Transaction,
        frame: Frame,
        stack: list[StackEntry],
        key: object,
        rid: object,
    ) -> None:
        """Phases 4–5: BP expansion up the tree, then the leaf entry."""
        page = frame.page
        # Phase 4: expand ancestors' BPs (with predicate percolation).
        if page.bp is not None and not self.ext.covers(page.bp, key):
            self._update_bp(
                txn, frame, self.ext.union([page.bp, key]), stack
            )
        # Phase 5: the content change itself, ascribed to the txn.
        record = AddLeafEntryRecord(
            xid=txn.xid,
            tree=self.name,
            page_id=page.pid,
            nsn=page.nsn,
            key=key,
            rid=rid,
        )
        lsn = self.db.log.append(record)
        record.redo_page(page)
        frame.mark_dirty(lsn)

    def _unique_leaf_check(
        self,
        txn: Transaction,
        frame: Frame,
        key: object,
        rid: object,
        plock: PredicateLock,
    ) -> list | None:
        """Final duplicate defence on the target leaf (section 8).

        Returns ``None`` when the insertion may proceed, or a list of
        transaction ids to wait for before re-running the duplicate
        probe.  Raises :class:`UniqueViolationError` on a committed
        duplicate (after S-locking it for error repeatability).
        """
        locks = self.db.locks
        page = frame.page
        for entry in page.entries:
            if entry.rid == rid or entry.key != key:
                continue
            if entry.deleted:
                if entry.delete_xid is not None and self.db.txns.is_committed(
                    entry.delete_xid
                ):
                    continue  # awaiting garbage collection
                if entry.delete_xid == txn.xid:
                    continue  # we deleted it ourselves earlier
            granted = locks.acquire(
                txn.xid, self.rid_lock(entry.rid), LockMode.S, wait=False
            )
            if not granted:
                owners = list(locks.holders(self.rid_lock(entry.rid)))
                return owners
            if entry.deleted:
                continue  # the deleter finished; mark now committed
            raise UniqueViolationError(key)
        conflicts = self.predicates.conflicting(
            page.pid,
            self.ext.eq_query(key),
            kinds=(PredicateKind.INSERT,),
            exclude_owner=txn.xid,
            before=plock if page.pid in plock.attachments else None,
        )
        if conflicts:
            return [p.owner for p in conflicts]
        return None

    def _wait_for_txns(self, txn: Transaction, owners: list) -> None:
        """Block until the listed transactions terminate (no latches)."""
        from repro.txn.manager import txn_lock_name

        for owner in sorted(set(owners)):
            if owner == txn.xid:
                continue
            name = txn_lock_name(owner)
            self.db.locks.acquire(txn.xid, name, LockMode.S)
            self.db.locks.release(txn.xid, name)

    def _release_path_signaling(
        self, txn: Transaction, stack: list[StackEntry]
    ) -> None:
        for entry in stack:
            self._release_signaling(txn, entry.pid)

    def _locate_leaf(
        self, txn: Transaction, key: object
    ) -> tuple[Frame, list[StackEntry]]:
        """Figure 4's ``locateLeaf``: min-penalty descent, no coupling.

        Returns the X-latched target leaf and the stack of visited
        ancestors (each carrying the NSN observed at visit time).  Every
        node on the path holds one of the transaction's signaling locks;
        the caller releases them when the operation completes.
        """
        pool = self.db.pool
        penalty = self.ext.penalty
        stack: list[StackEntry] = []
        memo = self.nsn.current()
        entry = self._stack_pointer(txn, self.root_pid, memo)
        pid, memo = entry.pid, entry.memo
        while True:
            frame = pool.fix(pid, LatchMode.S)
            if frame.page.is_leaf:
                # Leaves are modified in place: re-fix in X mode (the
                # node may split in the unlatched window; the NSN logic
                # below compensates).
                pool.unfix(frame)
                frame = pool.fix(pid, LatchMode.X)
            page = frame.page
            if memo < page.nsn and page.rightlink != NO_PAGE:
                # Missed split (the stacked NSN memo is stale): restart
                # locally by choosing the min-penalty node in the
                # rightlink chain delimited by the memorized value.
                self.stats.bump("nsn_restarts")
                self.metrics.tracer.event(
                    "gist.restart.nsn_mismatch",
                    tree=self.name,
                    pid=page.pid,
                    memo=memo,
                    nsn=page.nsn,
                )
                if self.db.spans is not None:
                    self.db.spans.note_event(
                        "gist.restart.nsn_mismatch", pid=page.pid
                    )
                frame = self._choose_in_chain(txn, frame, memo, key)
                page = frame.page
            if page.is_leaf:
                return frame, stack
            if not page.entries:
                # A transiently empty internal node (its children were
                # vacuumed away, its own deletion is pending).  For the
                # root: collapse it back into an empty leaf; elsewhere:
                # restart the descent, the node is about to disappear.
                if page.pid == self.root_pid:
                    pool.unfix(frame)
                    frame = pool.fix(self.root_pid, LatchMode.X)
                    if frame.page.is_internal and not frame.page.entries:
                        self._collapse_empty_root(txn, frame)
                    pool.unfix(frame)
                else:
                    pool.unfix(frame)
                self._release_signaling(txn, pid)
                self._release_path_signaling(txn, stack)
                stack.clear()
                memo = self.nsn.current()
                entry = self._stack_pointer(txn, self.root_pid, memo)
                pid, memo = entry.pid, entry.memo
                continue
            stack.append(StackEntry(page.pid, memo, nsn_seen=page.nsn))
            # The first min-penalty entry, as min() would return it;
            # penalties are never negative (GiSTExtension.penalty), so
            # the first zero is already that entry.
            best = None
            best_penalty = 0.0
            for node_entry in page.entries:
                entry_penalty = penalty(node_entry.pred, key)
                if best is None or entry_penalty < best_penalty:
                    best, best_penalty = node_entry, entry_penalty
                    if entry_penalty == 0:
                        break
            child_memo = self.nsn.memo_for_children(page)
            child_entry = self._stack_pointer(txn, best.child, child_memo)
            pool.unfix(frame)
            pid, memo = child_entry.pid, child_entry.memo

    def _choose_in_chain(
        self, txn: Transaction, frame: Frame, memo: int, key: object
    ) -> Frame:
        """Walk the rightlink chain delimited by ``memo``; keep the
        min-penalty node latched and release the others.

        At most two latches are held at once (current best + the node
        being examined), always in left-to-right order, so chain walks
        cannot deadlock with each other or with splits.
        """
        pool = self.db.pool
        mode = frame.latch.held_by_me() or LatchMode.S
        best = frame
        best_penalty = self._chain_penalty(frame.page, key)
        current = frame
        page = frame.page
        while page.nsn > memo and page.rightlink != NO_PAGE:
            self.stats.bump("rightlink_follows")
            nxt = pool.fix(page.rightlink, mode)
            page = nxt.page
            penalty = self._chain_penalty(page, key)
            if current is not best:
                pool.unfix(current)
            if penalty < best_penalty:
                if best is not nxt:
                    pool.unfix(best)
                best = nxt
                best_penalty = penalty
            current = nxt
        if current is not best:
            pool.unfix(current)
        # The chain nodes' signaling locks: the walker holds replicas
        # copied at split time; passing through a node consumes one.
        return best

    def _chain_penalty(self, page: Page, key: object) -> float:
        if page.bp is None:
            return 0.0
        return self.ext.penalty(page.bp, key)

    # ------------------------------------------------------------------
    # node split (Figure 4's splitNode, as one atomic action)
    # ------------------------------------------------------------------
    def _split_atomic(
        self,
        txn: Transaction,
        frame: Frame,
        stack: list[StackEntry],
        *,
        key_hint: object,
    ) -> Frame:
        """Split the X-latched full node inside one nested top action.

        Returns the X-latched side (original or new sibling) with the
        lower insertion penalty for ``key_hint``; the other side is
        unfixed.  Ancestor splits happen recursively inside the same
        atomic action; all its latches are released before it returns
        except the returned frame's (two-phase latching within the
        atomic action, section 9.1).
        """
        saved = self.db.log.begin_nta(txn.xid)
        target = self._split_node(txn, frame, stack, key_hint=key_hint)
        self.db.log.end_nta(txn.xid, saved)
        return target

    def _split_node(
        self,
        txn: Transaction,
        frame: Frame,
        stack: list[StackEntry],
        *,
        key_hint: object = None,
        locate_child: PageId | None = None,
    ) -> Frame:
        page = frame.page
        if page.pid == self.root_pid:
            return self._split_root(
                txn, frame, key_hint=key_hint, locate_child=locate_child
            )
        pool, log = self.db.pool, self.db.log

        # Latch the (correct) parent first, per Figure 4.
        parent = self._fix_parent(txn, page.pid, stack)

        new_frame: Frame | None = None
        new_pinned = False
        try:
            # Allocate and build the new right sibling.
            new_pid = self.db.store.allocate()
            get_rec = GetPageRecord(xid=txn.xid, page_id=new_pid)
            log.append(get_rec)
            new_page = Page(
                pid=new_pid,
                kind=page.kind,
                level=page.level,
                capacity=page.capacity,
            )
            new_frame = pool.adopt(new_page)
            pool.pin(new_pid)
            new_pinned = True
            new_frame.latch.acquire(LatchMode.X)

            stay_idx, move_idx = self._checked_pick_split(page)
            moved = [page.entries[i].copy() for i in move_idx]
            stay_preds = [self._entry_pred(page.entries[i]) for i in stay_idx]
            moved_preds = [self._entry_pred(e) for e in moved]
            split_rec = SplitRecord(
                xid=txn.xid,
                orig_pid=page.pid,
                new_pid=new_pid,
                moved_entries=moved,
                level=page.level,
                kind=page.kind,
                old_nsn=page.nsn,
                new_nsn=0,
                old_rightlink=page.rightlink,
                old_bp=page.bp,
                orig_new_bp=self.ext.union(stay_preds),
                new_page_bp=self.ext.union(moved_preds),
                capacity=page.capacity,
            )
            lsn = log.append(split_rec)
            # Section 3: increment the global counter, stamp the new value
            # on the ORIGINAL node; the sibling inherits the old NSN and
            # rightlink.  (With the LSN source the split record's own LSN is
            # the new value.)
            split_rec.new_nsn = self.nsn.next_for_split(lsn)
            split_rec.redo_page(page)
            frame.mark_dirty(lsn)
            split_rec.redo_page(new_page)
            new_frame.mark_dirty(lsn)
            self.stats.bump("splits")
            self.metrics.tracer.event(
                "gist.split",
                tree=self.name,
                pid=page.pid,
                new_pid=new_pid,
                nsn=split_rec.new_nsn,
            )
            if self.db.flightrec is not None:
                self.db.flightrec.record(
                    "gist.split",
                    tree=self.name,
                    pid=page.pid,
                    new_pid=new_pid,
                    nsn=split_rec.new_nsn,
                )
            if self.db.spans is not None:
                self.db.spans.note_event(
                    "gist.split", pid=page.pid, new_pid=new_pid
                )

            # Replicate predicate attachments consistent with the new BP
            # (section 4.3) and the signaling locks (section 10.3).
            self.predicates.replicate_for_split(
                page.pid, new_pid, new_page.bp
            )
            self.db.locks.replicate_shared(
                self.node_lock(page.pid), self.node_lock(new_pid)
            )
            self.db.hooks.fire(
                "insert:after-split", pid=page.pid, new_pid=new_pid
            )

            # Install the new downlink in the parent, splitting it first if
            # necessary (recursion stays inside the same atomic action).
            if parent.page.is_full:
                parent = self._split_node(
                    txn,
                    parent,
                    stack[:-1],
                    locate_child=page.pid,
                )
            add_rec = InternalEntryAddRecord(
                xid=txn.xid,
                page_id=parent.page.pid,
                pred=new_page.bp,
                child=new_pid,
            )
            lsn = log.append(add_rec)
            add_rec.redo_page(parent.page)
            parent.mark_dirty(lsn)
            old_parent_pred = parent.page.find_child_entry(page.pid).pred
            upd_rec = InternalEntryUpdateRecord(
                xid=txn.xid,
                page_id=parent.page.pid,
                child=page.pid,
                new_bp=page.bp,
                old_bp=old_parent_pred,
            )
            lsn = log.append(upd_rec)
            upd_rec.redo_page(parent.page)
            parent.mark_dirty(lsn)
            pool.unfix(parent)

        except BaseException:
            # An aborting split (extension error, injected fault, log
            # failure) must not strand the sibling or parent latches:
            # release whatever this level still holds.  The caller's
            # own frame remains the caller's responsibility.
            if new_frame is not None and new_frame.latch.held_by_me():
                new_frame.latch.release()
            if new_pinned:
                pool.unpin(new_pid)
            if parent.latch.held_by_me():
                pool.unfix(parent)
            raise
        return self._pick_split_side(
            txn, frame, new_frame, key_hint=key_hint, locate_child=locate_child
        )

    def _split_root(
        self,
        txn: Transaction,
        frame: Frame,
        *,
        key_hint: object = None,
        locate_child: PageId | None = None,
    ) -> Frame:
        """Root split: contents move into two fresh children, the root
        page id stays stable (no root-pointer race; see RootSplitRecord).
        """
        pool, log, store = self.db.pool, self.db.log, self.db.store
        page = frame.page
        left_pid = store.allocate()
        right_pid = store.allocate()
        log.append(GetPageRecord(xid=txn.xid, page_id=left_pid))
        log.append(GetPageRecord(xid=txn.xid, page_id=right_pid))

        stay_idx, move_idx = self._checked_pick_split(page)
        left_entries = [page.entries[i].copy() for i in stay_idx]
        right_entries = [page.entries[i].copy() for i in move_idx]
        rec = RootSplitRecord(
            xid=txn.xid,
            root_pid=page.pid,
            left_pid=left_pid,
            right_pid=right_pid,
            left_entries=left_entries,
            right_entries=right_entries,
            left_bp=self.ext.union(
                [self._entry_pred(e) for e in left_entries]
            ),
            right_bp=self.ext.union(
                [self._entry_pred(e) for e in right_entries]
            ),
            child_kind=page.kind,
            child_level=page.level,
            old_nsn=page.nsn,
            new_nsn=0,
            capacity=page.capacity,
        )
        lsn = log.append(rec)
        rec.new_nsn = self.nsn.next_for_split(lsn)

        left_frame: Frame | None = None
        right_frame: Frame | None = None
        pinned_pids: list[PageId] = []
        try:
            left_frame = pool.adopt(
                Page(pid=left_pid, kind=page.kind, capacity=page.capacity)
            )
            pool.pin(left_pid)
            pinned_pids.append(left_pid)
            left_frame.latch.acquire(LatchMode.X)
            right_frame = pool.adopt(
                Page(pid=right_pid, kind=page.kind, capacity=page.capacity)
            )
            pool.pin(right_pid)
            pinned_pids.append(right_pid)
            right_frame.latch.acquire(LatchMode.X)

            for target_frame in (frame, left_frame, right_frame):
                rec.redo_page(target_frame.page)
                target_frame.mark_dirty(lsn)
            self.stats.bump("root_splits")
            self.stats.bump("splits")
            self.metrics.tracer.event(
                "gist.root_split",
                tree=self.name,
                pid=page.pid,
                left_pid=left_pid,
                right_pid=right_pid,
                nsn=rec.new_nsn,
            )
            if self.db.flightrec is not None:
                self.db.flightrec.record(
                    "gist.root_split",
                    tree=self.name,
                    pid=page.pid,
                    left_pid=left_pid,
                    right_pid=right_pid,
                    nsn=rec.new_nsn,
                )
            if self.db.spans is not None:
                self.db.spans.note_event(
                    "gist.root_split", pid=page.pid
                )

            # Predicates attached to the root replicate to whichever child
            # BP they are consistent with (the attachment invariant).
            self.predicates.replicate_for_split(
                page.pid, left_pid, left_frame.page.bp
            )
            self.predicates.replicate_for_split(
                page.pid, right_pid, right_frame.page.bp
            )
            pool.unfix(frame)
            self.db.hooks.fire(
                "insert:after-split", pid=page.pid, new_pid=right_pid
            )
            # Descents that will land on the new children take signaling
            # locks when they push the fresh downlinks; the caller of this
            # split still holds its lock on the (stable) root id.  For the
            # caller's continued descent we hand over an explicitly taken
            # lock on whichever side it keeps.
        except BaseException:
            # Same unwind contract as _split_node: the half-built
            # children must not leak latches or pins when the split
            # aborts mid-flight; the root frame stays with the caller.
            for cleanup_frame in (left_frame, right_frame):
                if (
                    cleanup_frame is not None
                    and cleanup_frame.latch.held_by_me()
                ):
                    cleanup_frame.latch.release()
            for cleanup_pid in pinned_pids:
                pool.unpin(cleanup_pid)
            raise
        chosen = self._pick_split_side(
            txn,
            left_frame,
            right_frame,
            key_hint=key_hint,
            locate_child=locate_child,
        )
        try:
            name = self.node_lock(chosen.page.pid)
            # Signaling S-lock under the chosen child's latch: a
            # freshly allocated page cannot have a queued X waiter
            # (drain deleters only probe no-wait), so this never
            # blocks and cannot violate the latch-vs-lock-wait rule.
            self.db.locks.acquire(
                txn.xid, name, LockMode.S
            )  # lint: allow(lock-wait-under-latch): never waits
            txn.note_signaling(name)
        except BaseException:
            pool.unfix(chosen)
            raise
        return chosen

    def _pick_split_side(
        self,
        txn: Transaction,
        orig: Frame,
        new: Frame,
        *,
        key_hint: object = None,
        locate_child: PageId | None = None,
    ) -> Frame:
        """Choose which split side the caller continues with."""
        pool = self.db.pool
        if locate_child is not None:
            keep = (
                orig
                if orig.page.find_child_entry(locate_child) is not None
                else new
            )
        elif key_hint is not None:
            orig_pen = self._chain_penalty(orig.page, key_hint)
            new_pen = self._chain_penalty(new.page, key_hint)
            keep = orig if orig_pen <= new_pen else new
            if keep.page.is_full:  # extension produced a lopsided split
                keep = new if keep is orig else orig
        else:
            keep = orig
        drop = new if keep is orig else orig
        pool.unfix(drop)
        return keep

    def _checked_pick_split(
        self, page: Page
    ) -> tuple[list[int], list[int]]:
        preds = [self._entry_pred(e) for e in page.entries]
        stay, move = self.ext.pick_split(preds)
        if not stay or not move:
            raise ReproError(
                f"extension {self.ext.name!r} returned an empty split side"
            )
        if sorted(stay + move) != list(range(len(preds))):
            raise ReproError(
                f"extension {self.ext.name!r} split is not a partition"
            )
        return list(stay), list(move)

    @staticmethod
    def _entry_pred(entry: LeafEntry | InternalEntry) -> object:
        return entry.key if isinstance(entry, LeafEntry) else entry.pred

    def _collapse_empty_root(self, txn: Transaction, frame: Frame) -> None:
        """Turn an empty internal root back into an empty leaf.

        After a vacuum pass deletes every node under the root, the root
        is left internal with no downlinks; one atomic action restores
        it to the empty-leaf state so descents have somewhere to land.
        Logged as a full root image (redo-only, like any SMO).
        """
        page = frame.page
        image = Page(
            pid=page.pid,
            kind=PageKind.LEAF,
            level=0,
            nsn=page.nsn,
            capacity=page.capacity,
        )
        log = self.db.log
        saved = log.begin_nta(txn.xid)
        record = PageImageClr(xid=txn.xid, page_id=page.pid, image=image)
        lsn = log.append(record)
        record.redo_page(page)
        frame.mark_dirty(lsn)
        log.end_nta(txn.xid, saved)

    # ------------------------------------------------------------------
    # parent location (back-up phases)
    # ------------------------------------------------------------------
    def _fix_parent(
        self, txn: Transaction, child_pid: PageId, stack: list[StackEntry]
    ) -> Frame:
        """X-latch the node currently holding ``child_pid``'s downlink.

        Starts from the stacked parent; if the parent split since it was
        first visited, the entry may have moved right — continue in the
        rightlink chain (Figure 4).  If the chain no longer contains it
        (e.g. the root grew levels), re-descend from the root.
        """
        pool = self.db.pool
        self.db.hooks.fire("insert:before-parent", pid=child_pid)
        candidate = stack[-1].pid if stack else self.root_pid
        pid = candidate
        while pid != NO_PAGE:
            frame = pool.fix(pid, LatchMode.X)
            if frame.page.find_child_entry(child_pid) is not None:
                return frame
            next_pid = frame.page.rightlink
            pool.unfix(frame)
            self.stats.bump("rightlink_follows")
            pid = next_pid
        self.stats.bump("parent_redescents")
        frame = self._redescend_to_parent(child_pid)
        if frame is None:
            raise RecoveryError(
                f"no parent found for page {child_pid} in tree {self.name!r}"
            )
        return frame

    def _redescend_to_parent(self, child_pid: PageId) -> Frame | None:
        """Breadth-first hunt for the downlink of ``child_pid``.

        Last-resort path used after a root split changed the shape above
        the stacked parent.  Latches one node at a time (S), re-fixes
        the owner in X mode, and re-validates.
        """
        pool = self.db.pool
        frontier = [self.root_pid]
        seen: set[PageId] = set()
        while frontier:
            next_frontier: list[PageId] = []
            for pid in frontier:
                if pid in seen or pid == child_pid:
                    # never try to latch the child itself: the caller
                    # holds its X latch while looking for its parent
                    continue
                seen.add(pid)
                frame = pool.fix(pid, LatchMode.S)
                page = frame.page
                if page.is_leaf:
                    pool.unfix(frame)
                    continue
                if page.find_child_entry(child_pid) is not None:
                    pool.unfix(frame)
                    owner = pool.fix(pid, LatchMode.X)
                    if owner.page.find_child_entry(child_pid) is not None:
                        return owner
                    pool.unfix(owner)  # moved right meanwhile; keep looking
                    next_frontier.append(page.rightlink)
                    continue
                if page.rightlink != NO_PAGE:
                    next_frontier.append(page.rightlink)
                next_frontier.extend(e.child for e in page.entries)
                pool.unfix(frame)
            frontier = [p for p in next_frontier if p != NO_PAGE]
        return None

    # ------------------------------------------------------------------
    # BP propagation (Figure 4's updateBP)
    # ------------------------------------------------------------------
    def _update_bp(
        self,
        txn: Transaction,
        frame: Frame,
        union_bp: object,
        stack: list[StackEntry],
    ) -> None:
        """Expand ``frame``'s BP to ``union_bp``, propagating upward.

        Recursion latches ancestors bottom-up; the actual updates happen
        top-down on unwind (section 6), each as its own atomic action.
        Parent predicates newly consistent with the expanded BP are
        percolated down (section 4.3).
        """
        from repro.wal.records import ParentEntryUpdateRecord

        page = frame.page
        if page.pid == self.root_pid:
            return  # the root bounds the whole key space
        if page.bp is not None and self.ext.same(page.bp, union_bp):
            return
        pool, log = self.db.pool, self.db.log
        parent = self._fix_parent(txn, page.pid, stack)
        try:
            parent_page = parent.page
            if parent_page.pid != self.root_pid and parent_page.bp is not None:
                parent_union = self.ext.union([parent_page.bp, union_bp])
                self._update_bp(txn, parent, parent_union, stack[:-1])
            old_bp = page.bp
            saved = log.begin_nta(txn.xid)
            record = ParentEntryUpdateRecord(
                xid=txn.xid,
                new_bp=union_bp,
                child_pid=page.pid,
                parent_pid=parent_page.pid,
            )
            lsn = log.append(record)
            record.redo_page(page)
            frame.mark_dirty(lsn)
            record.redo_page(parent_page)
            parent.mark_dirty(lsn)
            log.end_nta(txn.xid, saved)
            self.stats.bump("bp_updates")
            # Percolate predicates newly consistent with the child.
            self.predicates.percolate(
                parent_page.pid, page.pid, union_bp, old_bp
            )
        finally:
            pool.unfix(parent)

    # ------------------------------------------------------------------
    # logical deletion (section 7)
    # ------------------------------------------------------------------
    def _mark_deleted(
        self, txn: Transaction, key: object, rid: object
    ) -> bool:
        """Locate the leaf entry and mark it deleted.  Returns found."""
        eq = self.ext.eq_query(key)
        memo = self.nsn.current()
        stack = [self._stack_pointer(txn, self.root_pid, memo)]
        found = False
        try:
            while stack and not found:
                entry = stack.pop()
                found = self._mark_visit(txn, entry, eq, key, rid, stack)
                self._release_signaling(txn, entry.pid)
        finally:
            # Drain: release signaling locks of unvisited pointers.
            for entry in stack:
                self._release_signaling(txn, entry.pid)
        return found

    def _mark_visit(
        self,
        txn: Transaction,
        entry: StackEntry,
        eq: object,
        key: object,
        rid: object,
        stack: list[StackEntry],
    ) -> bool:
        pool, log = self.db.pool, self.db.log
        pid = entry.pid
        last_handled = entry.memo
        # Peek at the node level with an S latch; leaves need X.
        frame = pool.fix(pid, LatchMode.S)
        try:
            if frame.page.is_leaf:
                # Trade the S latch for X; the unlatched window is
                # compensated by the NSN check below.  Clearing the
                # binding first keeps the finally correct if the
                # re-fix itself fails (e.g. an injected read fault).
                pool.unfix(frame)
                frame = None
                frame = pool.fix(pid, LatchMode.X)
            page = frame.page
            if page.nsn > last_handled and page.rightlink != NO_PAGE:
                self.stats.bump("rightlink_follows")
                self.stats.bump("nsn_restarts")
                self.metrics.tracer.event(
                    "gist.restart.nsn_mismatch",
                    tree=self.name,
                    pid=page.pid,
                    memo=last_handled,
                    nsn=page.nsn,
                )
                stack.append(StackEntry(page.rightlink, last_handled))
            if page.is_leaf:
                leaf_entry = page.find_leaf_entry(key, rid)
                if leaf_entry is None or leaf_entry.deleted:
                    # Already deleted => the deleter committed (we hold
                    # the record's X lock, so it must have finished; an
                    # abort would have unmarked it).  Not found.
                    return False
                record = MarkLeafEntryRecord(
                    xid=txn.xid,
                    tree=self.name,
                    page_id=page.pid,
                    nsn=page.nsn,
                    key=key,
                    rid=rid,
                )
                lsn = log.append(record)
                record.redo_page(page)
                frame.mark_dirty(lsn)
                self.db.hooks.fire("delete:marked", pid=page.pid, rid=rid)
                return True
            child_memo = self.nsn.memo_for_children(page)
            consistent = self.ext.consistent
            for node_entry in page.entries:
                if consistent(node_entry.pred, eq):
                    stack.append(
                        self._stack_pointer(txn, node_entry.child, child_memo)
                    )
            return False
        finally:
            if frame is not None:
                pool.unfix(frame)

    # ------------------------------------------------------------------
    # unique-index insertion (section 8)
    # ------------------------------------------------------------------
    def _insert_unique(
        self, txn: Transaction, key: object, rid: object
    ) -> None:
        self.db.locks.acquire(txn.xid, self.rid_lock(rid), LockMode.X)
        eq = self.ext.eq_query(key)
        # The search phase leaves "= key" predicates on every node it
        # visits, which is what turns the insert/insert race into a
        # detectable deadlock (section 8).
        plock = self.predicates.register(
            txn.xid, eq, PredicateKind.INSERT
        )
        try:
            while True:
                duplicate = self._probe_duplicate(txn, eq, rid, plock)
                if duplicate is not None:
                    dup_rid = duplicate
                    # Repeatability of the error: S-lock the duplicate's
                    # data record under two-phase locking; the "= key"
                    # predicates are then unnecessary (section 8).
                    self.db.locks.acquire(
                        txn.xid, self.rid_lock(dup_rid), LockMode.S
                    )
                    raise UniqueViolationError(key)
                try:
                    self._insert_located(txn, key, rid, plock)
                except _RetryUniqueProbe:
                    continue
                return
        finally:
            self.predicates.unregister(plock)

    def _probe_duplicate(
        self,
        txn: Transaction,
        eq: object,
        new_rid: object,
        plock: PredicateLock,
    ) -> object | None:
        """Search phase of a unique insertion.

        Returns the RID of a committed duplicate, or ``None``.  Attaches
        the caller's "= key" predicate to every visited node and blocks
        on conflicting insert predicates ahead of it.
        """
        from repro.gist.cursor import SearchCursor

        cursor = SearchCursor(
            self, txn, eq, attach_plock=plock, lock_rids=True
        )
        try:
            for found_key, found_rid in cursor.fetch_all():
                if found_rid != new_rid:
                    return found_rid
            return None
        finally:
            cursor.close(keep_plock=True)

    # ------------------------------------------------------------------
    # opportunistic garbage collection (section 7.1)
    # ------------------------------------------------------------------
    def _gc_leaf(self, txn: Transaction, frame: Frame) -> int:
        """Physically remove committed-deleter entries from the leaf.

        Runs as an atomic action on behalf of whatever operation happens
        to pass through (section 7.1).  Returns the number of entries
        collected.  BP shrinking is left to vacuum.
        """
        page = frame.page
        txns = self.db.txns
        rids = [
            (e.key, e.rid)
            for e in page.entries
            if e.deleted
            and e.delete_xid is not None
            and txns.is_committed(e.delete_xid)
        ]
        if not rids:
            return 0
        log = self.db.log
        saved = log.begin_nta(txn.xid)
        record = GarbageCollectionRecord(
            xid=txn.xid, page_id=page.pid, rids=rids
        )
        lsn = log.append(record)
        record.redo_page(page)
        frame.mark_dirty(lsn)
        log.end_nta(txn.xid, saved)
        self.stats.bump("gc_runs")
        self.stats.bump("gc_entries", len(rids))
        self.db.hooks.fire("gc:collected", pid=page.pid, count=len(rids))
        return len(rids)

    # ------------------------------------------------------------------
    # logical undo (section 9.2, Table 1's Add/Mark-Leaf-Entry rows)
    # ------------------------------------------------------------------
    def undo_add_leaf_entry(
        self,
        record: AddLeafEntryRecord,
        txn_xid: int,
        *,
        restart: bool,
    ) -> None:
        """Logical undo of a leaf insertion: re-locate the leaf (the
        entry may have moved right through splits) and remove the entry,
        writing the compensating record."""
        with self._fault_cleanup():
            frame = self._locate_for_undo(
                record.page_id, record.key, record.rid
            )
        try:
            clr = RemoveLeafEntryClr(
                xid=txn_xid,
                page_id=frame.page.pid,
                key=record.key,
                rid=record.rid,
            )
            clr.undo_next = record.prev_lsn
            lsn = self.db.log.append(clr)
            clr.redo_page(frame.page)
            frame.mark_dirty(lsn)
        finally:
            self.db.pool.unfix(frame)
        # Immediate garbage collection / BP shrink is permitted only
        # outside restart recovery (section 9.2); we leave both to
        # vacuum even at runtime, which is strictly more conservative.

    def undo_mark_leaf_entry(
        self,
        record: MarkLeafEntryRecord,
        txn_xid: int,
        *,
        restart: bool,
    ) -> None:
        """Logical undo of a logical deletion: unmark the entry."""
        with self._fault_cleanup():
            frame = self._locate_for_undo(
                record.page_id, record.key, record.rid
            )
        try:
            clr = UnmarkLeafEntryClr(
                xid=txn_xid,
                page_id=frame.page.pid,
                key=record.key,
                rid=record.rid,
            )
            clr.undo_next = record.prev_lsn
            lsn = self.db.log.append(clr)
            clr.redo_page(frame.page)
            frame.mark_dirty(lsn)
        finally:
            self.db.pool.unfix(frame)

    def _locate_for_undo(
        self, start_pid: PageId, key: object, rid: object
    ) -> Frame:
        """Find the leaf currently holding ``(key, rid)``, starting from
        the logged page and following rightlinks (section 9.2)."""
        pool = self.db.pool
        pid = start_pid
        while pid != NO_PAGE:
            frame = pool.fix(pid, LatchMode.X)
            if not frame.page.is_leaf:
                # The logged page was the root and has since grown into
                # an internal node (a root split moved its entries down
                # rather than right): fall back to a full descent.
                pool.unfix(frame)
                break
            if frame.page.find_leaf_entry(key, rid) is not None:
                return frame
            next_pid = frame.page.rightlink
            pool.unfix(frame)
            self.stats.bump("rightlink_follows")
            pid = next_pid
        frame = self._descend_for_entry(key, rid)
        if frame is not None:
            return frame
        raise RecoveryError(
            f"logical undo could not re-locate ({key!r}, {rid!r}) "
            f"from page {start_pid} in tree {self.name!r}"
        )

    def _descend_for_entry(self, key: object, rid: object) -> Frame | None:
        """Search the whole tree for a specific (key, rid) leaf entry,
        returning its X-latched leaf (logical-undo fallback path)."""
        pool = self.db.pool
        consistent = self.ext.consistent
        eq = self.ext.eq_query(key)
        stack = [self.root_pid]
        while stack:
            pid = stack.pop()
            frame = pool.fix(pid, LatchMode.X)
            page = frame.page
            if page.is_leaf:
                if page.find_leaf_entry(key, rid) is not None:
                    return frame
            else:
                for node_entry in page.entries:
                    if consistent(node_entry.pred, eq):
                        stack.append(node_entry.child)
            pool.unfix(frame)
        return None

    # ------------------------------------------------------------------
    # read-only helpers for checking / reporting
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Tree height (root level + 1); unsynchronized snapshot."""
        with self.db.pool.fixed(self.root_pid, LatchMode.S) as frame:
            return frame.page.level + 1

    def page_count(self) -> int:
        """Number of allocated pages reachable from the root."""
        return len(self.all_pids())

    def all_pids(self) -> list[PageId]:
        """All page ids reachable from the root (downlinks + rightlinks)."""
        pool = self.db.pool
        seen: set[PageId] = set()
        frontier = [self.root_pid]
        while frontier:
            pid = frontier.pop()
            if pid in seen or pid == NO_PAGE:
                continue
            seen.add(pid)
            with pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page
                if page.rightlink != NO_PAGE:
                    frontier.append(page.rightlink)
                if page.is_internal:
                    frontier.extend(e.child for e in page.entries)
        return sorted(seen)


class _RetryUniqueProbe(ReproError):
    """Internal: the unique-insert leaf check found a conflicting insert
    predicate ahead; re-run the duplicate probe."""
