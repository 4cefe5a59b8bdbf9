"""The concurrent, recoverable GiST (sections 3 and 5–9 of the paper).

This module is the core a reader checks against Figures 3–4 and Table
1: the search entry points (the traversal itself lives in
:mod:`repro.gist.cursor`), insertion (Figure 4), deletion by logical
delete (section 7), and the structure-modification machinery — node
split with NSN/rightlink juggling (section 3), recursive splitting,
root split, and bottom-up BP propagation with predicate percolation —
plus opportunistic garbage collection and logical undo.  Node deletion
is in :mod:`repro.gist.maintenance`.

Each protocol step is stated once.  Whoever located a leaf writes it
through the same two steps, :meth:`GiST._prepare_leaf` (collect
garbage, split, pin the leaf's signaling lock) and
:meth:`GiST._write_run` (expand BPs, log and add the entries, attach
the insert predicates); entries are marked by one traversal,
:meth:`GiST._mark_deleted_batch`.

:mod:`repro.gist.batch` (``multi_put``/``multi_get``/``multi_delete``),
:mod:`repro.gist.bulk` (``bulk_load``) and :mod:`repro.gist.unique`
(section 8) build on the core and are imported when their public
method is first called; ``import repro.gist.tree`` loads none of them.
All they use of a tree is:

* the public ``insert``, ``delete`` and ``search``;
* ``_locate_leaf``, ``_prepare_leaf``, ``_pin_leaf``, ``_write_run``,
  ``_release_path_signaling``, ``_wait_for_predicates`` (batch, bulk),
  ``_mark_deleted_batch`` (batch), ``_insert_located`` (unique);
* ``rid_lock``, ``stats.bump``, the ``_h_insert_ns``/``_h_delete_ns``
  histograms, and the attributes ``db``, ``ext``, ``predicates``,
  ``metrics``, ``name``, ``unique`` and ``root_pid``.

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

from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import (
    KeyNotFoundError,
    RecoveryError,
    ReproError,
    StorageFaultError,
)
from repro.gist.cursor import SearchCursor
from repro.gist.extension import GiSTExtension
from repro.gist.nsn import CounterNSN, LSNBasedNSN, NSNSource
from repro.gist.stack import StackEntry
from repro.gist.stats import OpEnvelope, TreeStats
from repro.lock.modes import LockMode
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
    copy_value,
)
from repro.sync.latch import LatchMode
from repro.txn.transaction import Transaction
from repro.wal.records import (
    AddLeafEntryRecord,
    GarbageCollectionRecord,
    GetPageRecord,
    InternalEntryAddRecord,
    InternalEntryUpdateRecord,
    LogRecord,
    MarkLeafEntryRecord,
    PageImageClr,
    RemarkLeafEntryClr,
    RemoveLeafEntryClr,
    ReviveLeafEntryRecord,
    RootSplitRecord,
    SplitRecord,
    UnmarkLeafEntryClr,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import Database


def _no_bounds(query: object) -> None:
    """``query_bounds`` of a tree whose extension declares no order."""
    return None


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
        #: ``query -> (lo, hi)`` order-key range, or ``None``: chosen once
        #: here, so an unordered tree's node visits test every entry
        self.query_bounds = extension.query_bounds or _no_bounds
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
        self.db.signaling.take(txn.xid, self.node_lock(pid))
        return StackEntry(pid, memo)

    def _release_signaling(self, txn: Transaction, pid: PageId) -> None:
        """Drop one signaling-lock hold after visiting ``pid``, unless a
        savepoint or the end-of-transaction rule pins it."""
        name = self.node_lock(pid)
        if not txn.keeps_signaling(name):
            self.db.signaling.drop(txn.xid, name)

    def _note_event(self, name: str, **data: object) -> None:
        """Emit one named tree event (SMO, missed split, drain wait, bulk
        load) to both recorders: the flight recorder and the active
        operation's span."""
        if self.db.flightrec is not None:
            self.db.flightrec.record(name, tree=self.name, **data)
        if self.db.spans is not None:
            self.db.spans.note_event(name, **data)

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def search(self, txn: Transaction, query: object) -> list[tuple]:
        """All ``(key, rid)`` pairs satisfying ``query`` (Figure 3)."""
        with OpEnvelope(self, "search", self._h_search_ns):
            cursor = SearchCursor(self, txn, query)
            try:
                return cursor.fetch_all()
            finally:
                cursor.close()

    def open_cursor(self, txn: Transaction, query: object):
        """An incremental search cursor (restorable across savepoints)."""
        return SearchCursor(self, txn, query)

    def count(self, txn: Transaction, query: object) -> int:
        """Number of entries satisfying ``query``.

        Isolation semantics are identical to :meth:`search` (under
        repeatable read the counted range is phantom-protected), only
        the materialized result list is avoided.
        """
        with OpEnvelope(self, "scan", self._h_search_ns):
            cursor = SearchCursor(self, txn, query)
            try:
                total = 0
                while cursor.fetch_next() is not None:
                    total += 1
                return total
            finally:
                cursor.close()

    def insert(self, txn: Transaction, key: object, rid: object) -> None:
        """Insert a ``(key, rid)`` pair (Figure 4; section 6 or 8)."""
        txn.require_active()
        key = self.ext.normalize_key(key)
        with OpEnvelope(self, "insert", self._h_insert_ns):
            # Phase 1: X-lock the data record before touching the tree.
            self.db.locks.acquire(txn.xid, self.rid_lock(rid), LockMode.X)
            plock = self.predicates.register(
                txn.xid, self.ext.eq_query(key), PredicateKind.INSERT
            )
            try:
                if self.unique:
                    from repro.gist.unique import insert_unique

                    insert_unique(self, txn, key, rid, plock)
                else:
                    self._insert_located(txn, key, rid, plock)
            finally:
                self.predicates.unregister(plock)
            self.stats.bump("inserts")

    def delete(self, txn: Transaction, key: object, rid: object) -> None:
        """Logically delete a ``(key, rid)`` pair (section 7).

        The entry is only *marked*; it stays physically present so that
        repeatable-read scans block on the deleter's record lock, and
        the path to it is left unshrunk.  Physical removal happens later
        through garbage collection (:mod:`repro.gist.maintenance`).
        """
        txn.require_active()
        key = self.ext.normalize_key(key)
        with OpEnvelope(self, "delete", self._h_delete_ns):
            self.db.locks.acquire(txn.xid, self.rid_lock(rid), LockMode.X)
            missing = self._mark_deleted_batch(
                txn, self.ext.eq_query(key), {(key, rid)}
            )
            if missing:
                raise KeyNotFoundError(
                    f"({key!r}, {rid!r}) not found in tree {self.name!r}"
                )
            self.stats.bump("deletes")

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

    # ------------------------------------------------------------------
    # operations built on the core, each in its own module
    # ------------------------------------------------------------------
    def multi_put(self, txn: Transaction, pairs: "Sequence[tuple]") -> int:
        """Batched insert, one descent per leaf run of the sorted batch;
        see :func:`repro.gist.batch.multi_put`.  Returns the count."""
        from repro.gist.batch import multi_put

        return multi_put(self, txn, pairs)

    def multi_get(self, txn: Transaction, keys: "Sequence[object]") -> dict:
        """Batched point lookup, ``{normalized key: [rids]}``; see
        :func:`repro.gist.batch.multi_get`."""
        from repro.gist.batch import multi_get

        return multi_get(self, txn, keys)

    def multi_delete(self, txn: Transaction, pairs: "Sequence[tuple]") -> int:
        """Batched logical delete of ``(key, rid)`` pairs; see
        :func:`repro.gist.batch.multi_delete`.  Returns the count."""
        from repro.gist.batch import multi_delete

        return multi_delete(self, txn, pairs)

    def bulk_load(self, txn: Transaction, pairs: "Sequence[tuple]") -> int:
        """Build the tree bottom-up from a sorted batch (empty tree
        only); see :func:`repro.gist.bulk.bulk_load`.  Returns the count."""
        from repro.gist.bulk import bulk_load

        return bulk_load(self, txn, pairs)

    # ------------------------------------------------------------------
    # logical deletion (section 7)
    # ------------------------------------------------------------------
    def _mark_deleted_batch(
        self, txn: Transaction, query: object, targets: set
    ) -> set:
        """Mark every targeted ``(key, rid)`` found under ``query``.

        The one mark traversal: a point delete passes an equality query
        and a single pair, ``multi_delete`` a multi-point query and the
        batch.  All of a leaf's targeted entries are marked with a
        single batched WAL append.  Returns the targets *not* found.
        """
        memo = self.nsn.current()
        stack = [self._stack_pointer(txn, self.root_pid, memo)]
        missing = set(targets)
        rids = {rid for _, rid in missing}
        try:
            while stack and missing:
                entry = stack.pop()
                self._mark_visit_batch(txn, entry, query, missing, rids, stack)
                self._release_signaling(txn, entry.pid)
        finally:
            # Drain: release signaling locks of unvisited pointers.
            self._release_path_signaling(txn, stack)
        return missing

    def _mark_visit_batch(
        self,
        txn: Transaction,
        entry: StackEntry,
        query: object,
        missing: set,
        rids: set,
        stack: list[StackEntry],
    ) -> None:
        """Visit one node: mark its entries named in ``missing`` (and
        strike them from it), or stack its consistent children.

        ``rids`` are the targets' RIDs: a leaf entry is tested by RID
        first, as ``find_leaf_entry`` does, so that keys costly to hash
        (an R-tree's rectangles) are hashed for the candidates only.
        """
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
                self._note_event(
                    "gist.restart.nsn_mismatch",
                    pid=page.pid,
                    memo=last_handled,
                    nsn=page.nsn,
                )
                stack.append(StackEntry(page.rightlink, last_handled))
            if page.is_leaf:
                # An entry already marked is not a victim: its deleter
                # committed (we hold the record's X lock, so it must
                # have finished; an abort would have unmarked it).
                records = [
                    MarkLeafEntryRecord(
                        xid=txn.xid,
                        tree=self.name,
                        page_id=page.pid,
                        nsn=page.nsn,
                        key=e.key,
                        rid=e.rid,
                    )
                    for e in page.entries
                    if e.rid in rids
                    and not e.deleted
                    and (e.key, e.rid) in missing
                ]
                if not records:
                    return
                lsns = log.append_many(records)
                for record in records:
                    record.redo_page(page)
                frame.mark_dirty(lsns[-1], lsns[0])
                for record in records:
                    missing.discard((record.key, record.rid))
                    self.db.hooks.fire(
                        "delete:marked", pid=page.pid, rid=record.rid
                    )
                return
            child_memo = self.nsn.memo_for_children(page)
            consistent = self.ext.consistent
            bounds = self.query_bounds(query)
            entries = page.entries if bounds is None else page.candidates(*bounds)
            for node_entry in entries:
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
    # insertion machinery
    # ------------------------------------------------------------------
    def _insert_located(
        self,
        txn: Transaction,
        key: object,
        rid: object,
        plock: PredicateLock,
        leaf_check: "Callable[..., list | None] | None" = None,
    ) -> list | None:
        """Phases 2–6 of section 6 (the tree part of an insertion).

        ``leaf_check(tree, txn, frame, key, rid, plock)``, when given,
        runs on the prepared leaf (section 8's last-line duplicate
        defence, :mod:`repro.gist.unique`); what it returns other than
        ``None`` vetoes the write and is handed back to the caller once
        the leaf is released.  Returns ``None`` when the entry went in.
        """
        frame, stack = self._locate_leaf(txn, key)
        self.db.hooks.fire("insert:leaf-located", pid=frame.page.pid)
        veto: list | None = None
        conflicts: list = []
        try:
            frame = self._prepare_leaf(txn, frame, stack, key)
            if leaf_check is not None:
                veto = leaf_check(self, txn, frame, key, rid, plock)
            if veto is None:
                conflicts = self._write_run(
                    txn, frame, stack, [(key, rid)], [plock]
                )
            pid = frame.page.pid
        finally:
            # A failure inside a split may have already handed the frame
            # off (e.g. a root split unfixes the old root); only release
            # what this thread still holds.
            if frame.latch.held_by_me() is not None:
                self.db.pool.unfix(frame)
            self._release_path_signaling(txn, stack)
        if veto is not None:
            return veto
        self.db.hooks.fire("insert:done", pid=pid)
        self._wait_for_predicates(txn, conflicts)
        return None

    def _prepare_leaf(
        self,
        txn: Transaction,
        frame: Frame,
        stack: list[StackEntry],
        key: object,
    ) -> Frame:
        """Make room on the located, X-latched leaf and pin it.

        Returns the X-latched frame to write — the leaf itself or, after
        a split, the side with the lower penalty for ``key``.  If a step
        fails the frame this thread still holds is released here, so the
        caller only ever owns what it passed in or what it got back.
        """
        try:
            if frame.page.is_full:
                # Opportunistic garbage collection may avoid the split
                # altogether (section 7.1).
                self._gc_leaf(txn, frame)
            if frame.page.is_full:
                self.db.hooks.fire("insert:before-split", pid=frame.page.pid)
                frame = self._split_atomic(txn, frame, stack, key_hint=key)
            self._pin_leaf(txn, frame.page.pid)
        except BaseException:
            if frame.latch.held_by_me() is not None:
                self.db.pool.unfix(frame)
            raise
        return frame

    def _pin_leaf(self, txn: Transaction, pid: PageId) -> None:
        """Retain the written leaf's signaling lock to end of transaction
        (section 7.2 / section 9): the logical-undo path to this leaf
        must stay intact.  Called with the leaf X-latched."""
        name = self.node_lock(pid)
        self.db.signaling.take(txn.xid, name)
        txn.pin_signaling_to_eot(name)

    def _write_run(
        self,
        txn: Transaction,
        frame: Frame,
        stack: list[StackEntry],
        run: list[tuple],
        plocks: list[PredicateLock],
    ) -> list:
        """Phases 4–6 of section 6 for a run of pairs on one prepared leaf.

        ``plocks`` are the run's registered insert predicates, pair for
        pair.  Returns the search predicates queued ahead of them; the
        caller waits for their owners once the leaf is released
        (:meth:`_wait_for_predicates`).
        """
        page = frame.page
        pid, bp = page.pid, page.bp
        # Phase 4: expand ancestors' BPs (with predicate percolation);
        # one expansion up the tree covers the whole run.
        if bp is not None:
            covers = self.ext.covers
            for key, _ in run:
                if not covers(bp, key):
                    self._update_bp(
                        txn,
                        frame,
                        self.ext.union([bp] + [k for k, _ in run]),
                        stack,
                    )
                    break
        # Phase 5: the content change itself, ascribed to the txn and
        # emitted through the batched log path.  A pair whose own
        # tombstone is still on the leaf revives it in place, and its
        # record says so (the undo re-marks rather than removes).
        xid, name, nsn = txn.xid, self.name, page.nsn
        found = [page.find_leaf_entry(key, rid) for key, rid in run]
        records = [
            ReviveLeafEntryRecord(
                xid=xid,
                tree=name,
                page_id=pid,
                nsn=nsn,
                key=key,
                rid=rid,
                delete_xid=entry.delete_xid,
            )
            if entry is not None and entry.deleted
            else AddLeafEntryRecord(
                xid=xid, tree=name, page_id=pid, nsn=nsn, key=key, rid=rid
            )
            for (key, rid), entry in zip(run, found)
        ]
        lsns = self.db.log.append_many(records)
        # The records' redo, with the new entries merged into the leaf
        # in one pass rather than added one by one; a pair already live
        # on the leaf, or named twice in the run, is added once.
        fresh: dict = {}
        for record, entry in zip(records, found):
            if entry is None:
                fresh[record.key, record.rid] = LeafEntry(
                    copy_value(record.key), record.rid
                )
            elif entry.deleted:
                record.redo_page(page)
        if fresh:
            page.add_entries(list(fresh.values()))
        frame.mark_dirty(lsns[-1], lsns[0])
        # Phase 6 per pair: attach its insert predicate, then collect
        # the search predicates attached *ahead of it* (FIFO fairness,
        # section 10.3).
        conflicts: list = []
        predicates = self.predicates
        for (key, _), plock in zip(run, plocks):
            predicates.attach(plock, pid)
            conflicts += predicates.conflicting(
                pid,
                key,
                kinds=(PredicateKind.SEARCH,),
                exclude_owner=xid,
                before=plock,
            )
        return conflicts

    def _wait_for_predicates(self, txn: Transaction, conflicts: list) -> None:
        """Block on the owners of conflicting predicates (no latches)."""
        if conflicts:
            self.stats.bump("predicate_blocks")
            PredicateManager.wait_for_owners(
                self.db.locks, txn.xid, conflicts
            )

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
        bounds = self.query_bounds(key)
        stack: list[StackEntry] = []
        entry = self._stack_pointer(txn, self.root_pid, self.nsn.current())
        while True:
            pid, memo = entry.pid, entry.memo
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
                self._note_event(
                    "gist.restart.nsn_mismatch",
                    pid=page.pid,
                    memo=memo,
                    nsn=page.nsn,
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
                entry = self._stack_pointer(
                    txn, self.root_pid, self.nsn.current()
                )
                continue
            # The pointer that led here becomes the path entry of the
            # node visited (after a chain walk: of the sibling chosen).
            entry.pid, entry.nsn_seen = page.pid, page.nsn
            stack.append(entry)
            # On an ordered tree, the last entry whose lower end is at
            # most the key is the one that can cover it; covering, it
            # has penalty zero, the least there is.
            best = None
            if bounds is not None:
                run = page.candidates(*bounds)
                if run and penalty(run[-1].pred, key) == 0:
                    best = run[-1]
            if best is None:
                # The first min-penalty entry, as min() would return it;
                # penalties are never negative (GiSTExtension.penalty),
                # so the first zero is already that entry.
                best_penalty = 0.0
                for node_entry in page.entries:
                    entry_penalty = penalty(node_entry.pred, key)
                    if best is None or entry_penalty < best_penalty:
                        best, best_penalty = node_entry, entry_penalty
                        if entry_penalty == 0:
                            break
            child_memo = self.nsn.memo_for_children(page)
            entry = self._stack_pointer(txn, best.child, child_memo)
            pool.unfix(frame)

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
        # The chain nodes are safe from deletion: their splits copied
        # the walker's hold on the node it came from (section 10.3).
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

        The split steps put the frames they are done with in
        ``release``, unfixed only after ``end_nta`` appended the
        ``DummyClr``: released earlier, a sibling could take another
        transaction's committed row while the action is open, and a
        crash would undo the split and lose the row.  No extra force is
        needed: every later record on a released page lies after the
        ``DummyClr`` in the sequential log.
        """
        release: list[Frame] = []
        try:
            saved = self.db.log.begin_nta(txn.xid)
            target = self._split_node(
                txn, frame, stack, release, key_hint=key_hint
            )
            self.db.log.end_nta(txn.xid, saved)
        finally:
            for done in release:
                self.db.pool.unfix(done)
        return target

    def _split_node(
        self,
        txn: Transaction,
        frame: Frame,
        stack: list[StackEntry],
        release: list[Frame],
        *,
        key_hint: object = None,
        locate_child: PageId | None = None,
    ) -> Frame:
        page = frame.page
        if page.pid == self.root_pid:
            return self._split_root(
                txn,
                frame,
                release,
                key_hint=key_hint,
                locate_child=locate_child,
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
            self._note_event(
                "gist.split",
                pid=page.pid,
                new_pid=new_pid,
                nsn=split_rec.new_nsn,
            )

            # Replicate predicate attachments consistent with the new BP
            # (section 4.3) and the signaling locks (section 10.3).
            self.predicates.replicate_for_split(
                page.pid, new_pid, new_page.bp
            )
            self.db.signaling.replicate(
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
                    release,
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
            release.append(parent)

        except BaseException:
            # An aborting split (extension error, injected fault, log
            # failure) must not strand the sibling or parent latches:
            # release whatever this level still holds and has not
            # handed to ``release``.  The caller's own frame remains the
            # caller's responsibility.
            if new_frame is not None and new_frame.latch.held_by_me():
                new_frame.latch.release()
            if new_pinned:
                pool.unpin(new_pid)
            if parent.latch.held_by_me() and parent not in release:
                pool.unfix(parent)
            raise
        return self._pick_split_side(
            frame,
            new_frame,
            release,
            key_hint=key_hint,
            locate_child=locate_child,
        )

    def _split_root(
        self,
        txn: Transaction,
        frame: Frame,
        release: list[Frame],
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

            # Only now the record: all three pages are resident and
            # X-latched before it exists (BufferPool.dirty_page_table).
            lsn = log.append(rec)
            rec.new_nsn = self.nsn.next_for_split(lsn)
            for target_frame in (frame, left_frame, right_frame):
                rec.redo_page(target_frame.page)
                target_frame.mark_dirty(lsn)
            self.stats.bump("root_splits")
            self.stats.bump("splits")
            self._note_event(
                "gist.root_split",
                pid=page.pid,
                left_pid=left_pid,
                right_pid=right_pid,
                nsn=rec.new_nsn,
            )

            # Predicates attached to the root replicate to whichever child
            # BP they are consistent with (the attachment invariant).
            self.predicates.replicate_for_split(
                page.pid, left_pid, left_frame.page.bp
            )
            self.predicates.replicate_for_split(
                page.pid, right_pid, right_frame.page.bp
            )
            release.append(frame)
            self.db.hooks.fire(
                "insert:after-split", pid=page.pid, new_pid=right_pid
            )
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
            left_frame,
            right_frame,
            release,
            key_hint=key_hint,
            locate_child=locate_child,
        )
        # Descents to the new children take their signaling locks on the
        # fresh downlinks; the caller, whose hold is on the (stable) root
        # id, gets one on the side it keeps.
        self.db.signaling.take(txn.xid, self.node_lock(chosen.page.pid))
        return chosen

    def _pick_split_side(
        self,
        orig: Frame,
        new: Frame,
        release: list[Frame],
        *,
        key_hint: object = None,
        locate_child: PageId | None = None,
    ) -> Frame:
        """Choose which split side the caller continues with; the other
        goes to ``release``."""
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
        release.append(new if keep is orig else orig)
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
        writing the compensating record.  An insert that revived its
        pair's tombstone is undone by re-marking the entry instead."""
        if isinstance(record, ReviveLeafEntryRecord):
            self._undo_leaf_entry(
                record,
                txn_xid,
                RemarkLeafEntryClr,
                delete_xid=record.delete_xid,
            )
        else:
            self._undo_leaf_entry(record, txn_xid, RemoveLeafEntryClr)
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
        self._undo_leaf_entry(record, txn_xid, UnmarkLeafEntryClr)

    def _undo_leaf_entry(
        self,
        record: AddLeafEntryRecord | MarkLeafEntryRecord,
        txn_xid: int,
        clr_type: type[LogRecord],
        **clr_fields: object,
    ) -> None:
        """Locate the entry's current leaf, log the CLR, apply it."""
        try:
            frame = self._locate_for_undo(
                record.page_id, record.key, record.rid
            )
        except StorageFaultError:
            # the fault unwound mid-walk, past a frame still fixed;
            # same cleanup as OpEnvelope, which undo does not run under
            self.db.pool.release_thread_fixes()
            raise
        try:
            clr = clr_type(
                xid=txn_xid,
                page_id=frame.page.pid,
                key=record.key,
                rid=record.rid,
                **clr_fields,
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
