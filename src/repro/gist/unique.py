"""Unique-index insertion (section 8 of the paper).

A unique insert is a search phase followed by the ordinary insertion
of :mod:`repro.gist.tree`.  The search leaves "= key" predicates on
every node it visits, which is what turns the insert/insert race into
a detectable deadlock; a last check on the target leaf catches the
racer whose entry or predicate got there first.  The core knows none
of this: ``_insert_located`` only runs the ``leaf_check`` it is handed
on the prepared leaf and hands back what the check vetoed with.
"""

from __future__ import annotations

from repro.errors import UniqueViolationError
from repro.gist.cursor import SearchCursor
from repro.gist.tree import GiST
from repro.lock.modes import LockMode
from repro.predicate.manager import PredicateKind, PredicateLock
from repro.storage.buffer import Frame
from repro.txn.manager import txn_lock_name
from repro.txn.transaction import Transaction


def insert_unique(
    tree: GiST, txn: Transaction, key: object, rid: object, plock: PredicateLock
) -> None:
    """Insert ``(key, rid)`` unless a committed duplicate of ``key`` exists.

    The caller has done phase 1 of any insertion: ``rid`` is X-locked
    and ``plock`` is the registered "= key" insert predicate.
    """
    while True:
        # The search phase leaves "= key" predicates on every node it
        # visits, which is what turns the insert/insert race into a
        # detectable deadlock (section 8).
        dup_rid = _probe_duplicate(tree, txn, plock.pred, rid, plock)
        if dup_rid is not None:
            # Repeatability of the error: S-lock the duplicate's
            # data record under two-phase locking; the "= key"
            # predicates are then unnecessary (section 8).
            tree.db.locks.acquire(txn.xid, tree.rid_lock(dup_rid), LockMode.S)
            raise UniqueViolationError(key)
        owners = tree._insert_located(
            txn, key, rid, plock, leaf_check=_leaf_check
        )
        if owners is None:
            return
        # The leaf check found a racer ahead of us: wait for it with
        # no latches held, then re-run the duplicate probe.
        tree.stats.bump("predicate_blocks")
        _wait_for_txns(tree, txn, owners)


def _probe_duplicate(
    tree: GiST,
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
    cursor = SearchCursor(tree, txn, eq, attach_plock=plock, lock_rids=True)
    try:
        for found_key, found_rid in cursor.fetch_all():
            if found_rid != new_rid:
                return found_rid
        return None
    finally:
        cursor.close(keep_plock=True)


def _leaf_check(
    tree: GiST,
    txn: Transaction,
    frame: Frame,
    key: object,
    rid: object,
    plock: PredicateLock,
) -> list | None:
    """Final duplicate defence on the target leaf (section 8): a racing
    inserter of the same key whose entry or "= key" predicate reached
    this leaf first.

    Returns ``None`` when the insertion may proceed, or a list of
    transaction ids to wait for before re-running the duplicate
    probe.  Raises :class:`UniqueViolationError` on a committed
    duplicate (after S-locking it for error repeatability).
    """
    locks = tree.db.locks
    page = frame.page
    for entry in page.entries:
        if entry.rid == rid or entry.key != key:
            continue
        if entry.deleted:
            if entry.delete_xid is not None and tree.db.txns.is_committed(
                entry.delete_xid
            ):
                continue  # awaiting garbage collection
            if entry.delete_xid == txn.xid:
                continue  # we deleted it ourselves earlier
        granted = locks.acquire(
            txn.xid, tree.rid_lock(entry.rid), LockMode.S, wait=False
        )
        if not granted:
            owners = list(locks.holders(tree.rid_lock(entry.rid)))
            return owners
        if entry.deleted:
            continue  # the deleter finished; mark now committed
        raise UniqueViolationError(key)
    conflicts = tree.predicates.conflicting(
        page.pid,
        tree.ext.eq_query(key),
        kinds=(PredicateKind.INSERT,),
        exclude_owner=txn.xid,
        before=plock if page.pid in plock.attachments else None,
    )
    if conflicts:
        return [p.owner for p in conflicts]
    return None


def _wait_for_txns(tree: GiST, txn: Transaction, owners: list) -> None:
    """Block until the listed transactions terminate (no latches)."""
    for owner in sorted(set(owners)):
        if owner == txn.xid:
            continue
        name = txn_lock_name(owner)
        tree.db.locks.acquire(txn.xid, name, LockMode.S)
        tree.db.locks.release(txn.xid, name)
