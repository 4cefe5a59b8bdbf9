"""Bottom-up bulk load: build the structure, then fill it.

The only thing a bulk load does that no other operation does is build
pages nobody can reach yet and attach them under the root in one
nested top action (:func:`_build_structure`).  Everything after that
is the ordinary insertion of :mod:`repro.gist.tree`, minus the descent:
each built leaf is fixed, its signaling lock pinned, and its chunk
written by the core's ``_write_run``.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import UniqueViolationError
from repro.gist.batch import batch_insert, organize_pairs, put_runs
from repro.gist.tree import GiST
from repro.gist.unique import insert_unique
from repro.predicate.manager import PredicateLock
from repro.storage.page import InternalEntry, Page, PageId, PageKind
from repro.sync.latch import LatchMode
from repro.txn.transaction import Transaction
from repro.wal.records import GetPageRecord, PageImageClr, RootReplaceRecord

#: fraction of a page's capacity a built page is filled to; the rest is
#: headroom for the inserts that follow the load (DESIGN §8 "Tried and
#: removed" has the verdict on making this a parameter)
FILL = 0.75


def bulk_load(tree: GiST, txn: Transaction, pairs: "Sequence[tuple]") -> int:
    """Build the tree bottom-up from a sorted batch (empty tree only).

    The structure — empty leaves at :data:`FILL` of capacity,
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
    completed SMO.  Locking matches ``multi_put``: all RIDs are
    X-locked and all insert predicates registered up front, and
    search predicates attached to the old root replicate to every
    built page.  When the tree is not an empty leaf (or the batch
    fits in the root) this degrades to the ``multi_put`` run
    protocol.  Returns the number of entries loaded.
    """
    txn.require_active()
    pairs, organized = organize_pairs(tree, pairs)
    if not pairs:
        return 0
    if tree.unique:
        seen_keys: set = set()
        for key, _ in pairs:
            if key in seen_keys:
                raise UniqueViolationError(key)
            seen_keys.add(key)

    def place(plocks: list[PredicateLock]) -> None:
        leaves = _build_structure(tree, txn, pairs)
        if leaves is not None:
            _fill_leaves(tree, txn, leaves, plocks)
        elif tree.unique:
            # The tree has prior content: the in-batch duplicate
            # check above is not enough, run the full per-key
            # duplicate protocol.
            for (key, rid), plock in zip(pairs, plocks):
                insert_unique(tree, txn, key, rid, plock)
        else:
            put_runs(tree, txn, pairs, plocks, organized)

    return batch_insert(tree, txn, "bulk_load", pairs, place)


def _build_structure(
    tree: GiST, txn: Transaction, pairs: list[tuple]
) -> list[tuple[PageId, list[tuple]]] | None:
    """Build and attach the empty structure; ``None`` if the fast path is off.

    Returns the built leaves with the chunk each is to hold, or ``None``
    without touching the tree when the root is not an empty leaf or the
    batch fits in it — the caller then falls back to the run-based
    insert protocol.
    """
    pool, log = tree.db.pool, tree.db.log
    leaves: list[tuple[PageId, list[tuple]]] = []
    root_frame = pool.fix(tree.root_pid, LatchMode.X)
    try:
        root = root_frame.page
        if not root.is_leaf or root.entries:
            return None
        capacity = root.capacity
        per_page = max(2, min(capacity, int(capacity * FILL)))
        if len(pairs) <= capacity:
            return None  # a single leaf suffices; no structure to build
        old_image = root.snapshot()

        # The whole structure is one atomic action (section 9.1).
        # Everything below is pure in-memory page building — the
        # only waits are log appends, which are legal under latches.
        saved = log.begin_nta(txn.xid)
        built: list[tuple[PageId, object]] = []
        for i in range(0, len(pairs), per_page):
            chunk = pairs[i : i + per_page]
            bp = tree.ext.union([key for key, _ in chunk])
            pid = _build_page(tree, txn, PageKind.LEAF, 0, bp, [], capacity)
            built.append((pid, bp))
            leaves.append((pid, chunk))
        level_nodes = list(built)
        level = 1
        while len(level_nodes) > capacity:
            parents: list[tuple[PageId, object]] = []
            for i in range(0, len(level_nodes), per_page):
                group = level_nodes[i : i + per_page]
                entries = [
                    InternalEntry(pred=bp, child=pid) for pid, bp in group
                ]
                bp = tree.ext.union([bp for _, bp in group])
                pid = _build_page(
                    tree, txn, PageKind.INTERNAL, level, bp, entries, capacity
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
                InternalEntry(pred=bp, child=pid) for pid, bp in level_nodes
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
        tree.db.hooks.fire("bulk:attached", pid=root.pid)
        log.end_nta(txn.xid, saved)
        tree.db.hooks.fire(
            "bulk:structure-built",
            pid=root.pid,
            pages=len(built),
            levels=level,
        )
        # Search predicates attached to the root-as-leaf must reach
        # every page of the new structure they are consistent with
        # (the attachment invariant) — same rule as a split.
        for pid, bp in built:
            tree.predicates.replicate_for_split(root.pid, pid, bp)
        tree.stats.bump("bulk_loads")
        tree._note_event(
            "gist.bulk_load",
            pages=len(built),
            levels=level,
            keys=len(pairs),
        )
    finally:
        pool.unfix(root_frame)
    return leaves


def _build_page(
    tree: GiST,
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
    pool, log, store = tree.db.pool, tree.db.log, tree.db.store
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
    record = PageImageClr(xid=txn.xid, page_id=pid, image=page.snapshot())
    # resident and X-latched before its first record exists, like any
    # page a record dirties (BufferPool.dirty_page_table)
    frame = pool.adopt(page)
    frame.latch.acquire(LatchMode.X)
    try:
        frame.mark_dirty(log.append(record))
    finally:
        frame.latch.release()
    tree.stats.bump("bulk_pages_built")
    return pid


def _fill_leaves(
    tree: GiST,
    txn: Transaction,
    leaves: list[tuple[PageId, list[tuple]]],
    plocks: list[PredicateLock],
) -> None:
    """Fill phase: transactional content, one batched append per leaf."""
    pool = tree.db.pool
    conflicts: list = []
    offset = 0
    for pid, chunk in leaves:
        frame = pool.fix(pid, LatchMode.X)
        try:
            # A freshly built page cannot have a queued X waiter (drain
            # deleters only probe no-wait), so taking its signaling
            # lock never blocks under the latch.
            tree._pin_leaf(txn, pid)
            conflicts += tree._write_run(
                txn, frame, [], chunk, plocks[offset : offset + len(chunk)]
            )
        finally:
            pool.unfix(frame)
        tree.db.hooks.fire("bulk:leaf-filled", pid=pid, count=len(chunk))
        offset += len(chunk)
    tree._wait_for_predicates(txn, conflicts)
