"""Garbage collection, BP shrinking and node deletion (sections 7.1–7.2).

Logical deletion leaves tombstoned entries behind; this module provides
the *vacuum* pass that (a) physically removes entries whose deleting
transactions committed, (b) shrinks bounding predicates that became too
wide, and (c) retires empty nodes.

Node deletion implements the **drain technique**: a node may only be
unlinked when no operation holds a direct or indirect reference to it,
which is visible as the absence of signaling locks — the deleter probes
with a no-wait X lock on the node's lock name (section 7.2).  Unlinking
splices the left sibling's rightlink past the victim and removes the
parent downlink inside one atomic action, then frees the page for reuse.

All structure modifications here are nested top actions executed on
behalf of whatever transaction happens to run the vacuum (they commit
independently of it, section 9.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.gist.tree import GiST
from repro.lock.modes import LockMode
from repro.storage.page import NO_PAGE, PageId, PageKind
from repro.sync.latch import LatchMode
from repro.txn.transaction import Transaction
from repro.wal.records import (
    FreePageRecord,
    InternalEntryDeleteRecord,
    ParentEntryUpdateRecord,
    RightlinkUpdateRecord,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.buffer import Frame


@dataclass
class VacuumReport:
    """What one vacuum pass accomplished."""

    leaves_visited: int = 0
    entries_collected: int = 0
    bps_shrunk: int = 0
    nodes_deleted: int = 0
    deletions_blocked: int = 0
    freed_pids: list[PageId] = field(default_factory=list)


def vacuum(tree: GiST, txn: Transaction) -> VacuumReport:
    """One full maintenance pass over ``tree``.

    Garbage-collects every leaf, shrinks BPs that no longer bound their
    node's content, and attempts to delete nodes left empty.  Safe to
    run concurrently with reads and writes; deletions respect the drain
    condition and simply skip protected nodes.
    """
    report = VacuumReport()
    for level_pids in _collect_levels(tree):
        for pid in level_pids:
            if pid == tree.root_pid:
                continue
            _vacuum_node(tree, txn, pid, report)
    # Root collapse: if everything under the root was deleted, restore
    # it to the empty-leaf state.
    with tree.db.pool.fixed(tree.root_pid, LatchMode.X) as root:
        if root.page.is_internal and not root.page.entries:
            tree._collapse_empty_root(txn, root)
    return report


def _collect_levels(tree: GiST) -> list[list[PageId]]:
    """Page ids grouped by level, bottom level first.

    Taken as an unsynchronized snapshot; concurrent splits may add pages
    we miss this pass, which is fine — vacuum is opportunistic.
    """
    pool = tree.db.pool
    by_level: dict[int, list[PageId]] = {}
    frontier = [tree.root_pid]
    seen: set[PageId] = set()
    while frontier:
        pid = frontier.pop()
        if pid in seen or pid == NO_PAGE:
            continue
        seen.add(pid)
        with pool.fixed(pid, LatchMode.S) as frame:
            page = frame.page
            by_level.setdefault(page.level, []).append(pid)
            if page.rightlink != NO_PAGE:
                frontier.append(page.rightlink)
            if page.is_internal:
                frontier.extend(e.child for e in page.entries)
    return [by_level[level] for level in sorted(by_level)]


def _vacuum_node(
    tree: GiST, txn: Transaction, pid: PageId, report: VacuumReport
) -> None:
    pool = tree.db.pool
    deletable = False
    frame = pool.fix(pid, LatchMode.X)
    try:
        page = frame.page
        if page.kind is PageKind.FREE:
            return
        if page.is_leaf:
            report.leaves_visited += 1
            report.entries_collected += tree._gc_leaf(txn, frame)
        if len(page.entries) == 0:
            deletable = True
        elif _shrink_bp(tree, txn, frame):
            report.bps_shrunk += 1
    finally:
        pool.unfix(frame)
    # The deletion attempt runs unlatched: _try_delete_node re-fixes in
    # the global latch order (left sibling, victim, parent).
    if deletable and _try_delete_node(tree, txn, pid, report):
        report.nodes_deleted += 1


def _shrink_bp(tree: GiST, txn: Transaction, frame: "Frame") -> bool:
    """Tighten the node's BP to the union of its live content.

    The inverse of Figure 4's updateBP; like it, the change is one
    Parent-Entry-Update atomic action per level (here: one level only —
    vacuum visits ancestors in a later group of the same pass).
    """
    page = frame.page
    if page.pid == tree.root_pid or page.bp is None:
        return False
    if page.is_leaf:
        # Every physically present entry counts — including logically
        # deleted ones whose deleter has not committed: the path to a
        # marked entry must survive until it is garbage-collected
        # (section 7).
        preds = [e.key for e in page.entries]
    else:
        preds = [e.pred for e in page.entries]
    if not preds:
        return False
    tight = tree.ext.union(preds)
    if tree.ext.same(tight, page.bp):
        return False
    # The tightened BP must still be covered by the old one; a concurrent
    # insert may be about to rely on the old bound, but it holds the leaf
    # X latch while inserting, and we hold it now, so the content we
    # computed from is current.
    parent = tree._fix_parent(txn, page.pid, [])
    try:
        log = tree.db.log
        saved = log.begin_nta(txn.xid)
        record = ParentEntryUpdateRecord(
            xid=txn.xid,
            new_bp=tight,
            child_pid=page.pid,
            parent_pid=parent.page.pid,
        )
        lsn = log.append(record)
        record.redo_page(page)
        frame.mark_dirty(lsn)
        record.redo_page(parent.page)
        parent.mark_dirty(lsn)
        log.end_nta(txn.xid, saved)
    finally:
        tree.db.pool.unfix(parent)
    return True


def _note_drain_blocked(
    tree: GiST, victim: PageId, report: VacuumReport, *, probe: str
) -> None:
    """A drain probe found live references: the deletion must wait."""
    report.deletions_blocked += 1
    tree.stats.bump("drain_waits")
    tree._note_event("gist.drain.wait", pid=victim, probe=probe)


def _find_left_sibling(tree: GiST, victim: PageId) -> PageId:
    """The page whose rightlink points at ``victim``, or ``NO_PAGE``."""
    pool = tree.db.pool
    frontier = [tree.root_pid]
    seen: set[PageId] = set()
    while frontier:
        pid = frontier.pop()
        if pid in seen or pid == NO_PAGE:
            continue
        seen.add(pid)
        with pool.fixed(pid, LatchMode.S) as frame:
            page = frame.page
            if page.rightlink == victim:
                return pid
            if page.rightlink != NO_PAGE:
                frontier.append(page.rightlink)
            if page.is_internal:
                frontier.extend(e.child for e in page.entries)
    return NO_PAGE


def _try_delete_node(
    tree: GiST, txn: Transaction, victim: PageId, report: VacuumReport
) -> bool:
    """Delete an empty node if the drain condition allows (section 7.2).

    The probe is a no-wait X lock on the node's lock name: any direct
    pointer (a stacked reference) or indirect one (a replica copied at
    split time) holds an S signaling lock and defeats the probe.
    """
    tree.db.hooks.fire("node-delete:attempt", pid=victim)
    locks = tree.db.locks
    name = tree.node_lock(victim)
    # First drain probe: any direct or replicated signaling lock defeats
    # it.  The probe lock is released again immediately — holding it
    # across the latch acquisitions below would deadlock against
    # traversals that take signaling locks *under* a node latch.
    if not locks.acquire(txn.xid, name, LockMode.X, wait=False):
        _note_drain_blocked(tree, victim, report, probe="initial")
        return False
    locks.release(txn.xid, name)
    pool, log, store = tree.db.pool, tree.db.log, tree.db.store
    left_pid = _find_left_sibling(tree, victim)
    # Latch order: left sibling, victim, parent — within-level
    # left-to-right, then bottom-up, consistent with splits.
    left = pool.fix(left_pid, LatchMode.X) if left_pid != NO_PAGE else None
    try:
        victim_frame = pool.fix(victim, LatchMode.X)
    except BaseException:
        if left is not None:
            pool.unfix(left)
        raise
    page = victim_frame.page
    if (
        page.entries
        or (left is not None and left.page.rightlink != victim)
    ):
        # Something changed since we looked; try again next pass.
        pool.unfix(victim_frame)
        if left is not None:
            pool.unfix(left)
        _note_drain_blocked(tree, victim, report, probe="revalidate")
        return False
    try:
        parent = tree._fix_parent(txn, victim, [])
    except BaseException:
        pool.unfix(victim_frame)
        if left is not None:
            pool.unfix(left)
        raise
    # Second drain probe, now under *all three* latches.  New references
    # are only ever taken while holding the latch of the node the
    # pointer was read from — the parent (downlink) or the left sibling
    # (rightlink) — and we hold both in X mode, so a successful no-wait
    # probe here is stable for as long as the latches are held, and no
    # traversal can be blocked waiting on this lock while holding a
    # latch we want (the latch-vs-lock deadlock this ordering avoids).
    if not locks.acquire(txn.xid, name, LockMode.X, wait=False):
        pool.unfix(parent)
        pool.unfix(victim_frame)
        if left is not None:
            pool.unfix(left)
        _note_drain_blocked(tree, victim, report, probe="latched")
        return False
    try:
        try:
            saved = log.begin_nta(txn.xid)
            if left is not None:
                link_rec = RightlinkUpdateRecord(
                    xid=txn.xid,
                    page_id=left.page.pid,
                    new_rightlink=page.rightlink,
                    old_rightlink=victim,
                )
                lsn = log.append(link_rec)
                link_rec.redo_page(left.page)
                left.mark_dirty(lsn)
            victim_entry = parent.page.find_child_entry(victim)
            del_rec = InternalEntryDeleteRecord(
                xid=txn.xid,
                page_id=parent.page.pid,
                pred=victim_entry.pred,
                child=victim,
            )
            lsn = log.append(del_rec)
            del_rec.redo_page(parent.page)
            parent.mark_dirty(lsn)
            free_rec = FreePageRecord(xid=txn.xid, page_id=victim)
            log.append(free_rec)
            log.end_nta(txn.xid, saved)
        finally:
            pool.unfix(parent)
            pool.unfix(victim_frame)
            if left is not None:
                pool.unfix(left)
        # Make the page reusable and purge its stale frame.
        victim_frame.dirty = False
        pool.drop(victim)
        store.free(victim)
        report.freed_pids.append(victim)
        tree.stats.bump("node_deletes")
        tree.db.hooks.fire("node-delete:done", pid=victim)
        return True
    finally:
        locks.release(txn.xid, name)
