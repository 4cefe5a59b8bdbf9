"""Batched operations: ``multi_put``, ``multi_get``, ``multi_delete``.

Nothing here adds protocol: a batch is sorted in the extension's
declared order (``organize``) and then handed, piece by piece, to the steps the
point operations use (:mod:`repro.gist.tree`, whose module docstring
lists the interface).  ``multi_put`` decides only *which pairs share a
leaf* — the run extension in :func:`put_runs`; what is done to the leaf
is the core's ``_prepare_leaf`` and ``_write_run``.  ``multi_get`` is
one search under a multi-point predicate, ``multi_delete`` one mark
traversal under it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import KeyNotFoundError
from repro.gist.stats import OpEnvelope
from repro.gist.tree import GiST
from repro.lock.modes import LockMode
from repro.predicate.manager import PredicateKind, PredicateLock
from repro.txn.transaction import Transaction


def organize_pairs(
    tree: GiST, pairs: "Sequence[tuple]"
) -> tuple[list[tuple], bool]:
    """Normalize keys and sort the batch in the extension's declared
    order (:meth:`~repro.gist.extension.GiSTExtension.organize`).

    Returns ``(pairs, organized)``: the flag records whether the
    extension actually imposed an order — consecutive pairs of an
    organized batch are close in the key domain, which licenses the
    greedy leaf-run extension in :func:`put_runs`.
    """
    pairs = [(tree.ext.normalize_key(key), rid) for key, rid in pairs]
    order = tree.ext.organize([key for key, _ in pairs])
    if order is not None:
        pairs = [pairs[i] for i in order]
    return pairs, order is not None


def batch_insert(
    tree: GiST,
    txn: Transaction,
    kind: str,
    pairs: list[tuple],
    place: "Callable[[list[PredicateLock]], None]",
) -> int:
    """The envelope ``multi_put`` and ``bulk_load`` share.

    Phase 1 for the whole batch — X-lock every data record and register
    every insert predicate before the tree is touched — then ``place``
    puts the pairs into the tree, and the predicates are unregistered
    whatever happened.
    """
    plocks: list[PredicateLock] = []
    with OpEnvelope(tree, kind, tree._h_insert_ns):
        try:
            for key, rid in pairs:
                tree.db.locks.acquire(
                    txn.xid, tree.rid_lock(rid), LockMode.X
                )
                plocks.append(
                    tree.predicates.register(
                        txn.xid,
                        tree.ext.eq_query(key),
                        PredicateKind.INSERT,
                    )
                )
            place(plocks)
        finally:
            for plock in plocks:
                tree.predicates.unregister(plock)
    tree.stats.bump("inserts", len(pairs))
    tree.stats.bump("batch_ops")
    tree.stats.bump("batch_keys", len(pairs))
    return len(pairs)


def multi_put(tree: GiST, txn: Transaction, pairs: "Sequence[tuple]") -> int:
    """Batched insert: one descent per *leaf run* of the sorted batch.

    The batch is sorted in the extension's declared order, then
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
    pairs, organized = organize_pairs(tree, pairs)
    if not pairs:
        return 0
    if tree.unique:
        for key, rid in pairs:
            tree.insert(txn, key, rid)
        return len(pairs)
    return batch_insert(
        tree,
        txn,
        "multi_put",
        pairs,
        lambda plocks: put_runs(tree, txn, pairs, plocks, organized),
    )


def put_runs(
    tree: GiST,
    txn: Transaction,
    pairs: list[tuple],
    plocks: list[PredicateLock],
    organized: bool,
) -> None:
    """Consume the sorted batch one leaf run at a time.

    With an ``organized`` batch the run is extended greedily over
    consecutive pairs up to the leaf's free slots — BP coverage is
    an invariant maintained by expansion (``_update_bp``), not
    a placement requirement, and consecutive organized keys are
    close so one expansion covers the whole run (a B-tree append
    batch expands the rightmost leaf exactly as point inserts
    would).  Unorganized batches only extend runs over keys the
    leaf's BP already covers.
    """
    covers = tree.ext.covers
    i, n = 0, len(pairs)
    while i < n:
        key = pairs[i][0]
        frame, stack = tree._locate_leaf(txn, key)
        try:
            frame = tree._prepare_leaf(txn, frame, stack, key)
            page = frame.page
            # Extend the run: subsequent pairs the leaf can absorb
            # without a split (and, for unorganized batches,
            # without a BP expansion).
            free = page.capacity - len(page.entries)
            end = i + 1
            while (
                end < n
                and end - i < free
                and (organized or covers(page.bp, pairs[end][0]))
            ):
                end += 1
            conflicts = tree._write_run(
                txn, frame, stack, pairs[i:end], plocks[i:end]
            )
            pid = page.pid
        finally:
            if frame.latch.held_by_me() is not None:
                tree.db.pool.unfix(frame)
            tree._release_path_signaling(txn, stack)
        tree.stats.bump("batch_leaf_runs")
        if end - i > 1:
            tree.stats.bump("batch_descents_saved", end - i - 1)
        tree.db.hooks.fire("multi_put:run", pid=pid, count=end - i)
        tree._wait_for_predicates(txn, conflicts)
        i = end


def multi_get(tree: GiST, txn: Transaction, keys: "Sequence[object]") -> dict:
    """Batched point lookup: rids for each key, one shared descent.

    Returns ``{normalized key: [rids]}`` for every requested key
    (missing keys map to an empty list).  When the extension can
    express a multi-point predicate (:meth:`~repro.gist.extension.
    GiSTExtension.multi_eq_query`), the whole sorted batch is
    answered by a single cursor descent under one phantom-protected
    predicate — locking and isolation are exactly those of a
    ``search`` with that predicate.  Otherwise it degrades to
    one point search per distinct key.
    """
    results: dict = {tree.ext.normalize_key(key): [] for key in keys}
    if not results:
        return results
    distinct = list(results)
    order = tree.ext.organize(distinct)
    if order is not None:
        distinct = [distinct[i] for i in order]
    query = tree.ext.multi_eq_query(distinct)
    if query is None:
        for key in distinct:
            for _, rid in tree.search(txn, tree.ext.eq_query(key)):
                results[key].append(rid)
        return results
    tree.stats.bump("batch_ops")
    tree.stats.bump("batch_keys", len(distinct))
    if len(distinct) > 1:
        tree.stats.bump("batch_descents_saved", len(distinct) - 1)
    for found_key, rid in tree.search(txn, query):
        bucket = results.get(found_key)
        if bucket is not None:
            bucket.append(rid)
        else:
            # key types whose equality is not hash equality: route
            # through the extension's consistency test instead
            for key in distinct:
                if tree.ext.consistent(found_key, tree.ext.eq_query(key)):
                    results[key].append(rid)
    return results


def multi_delete(
    tree: GiST, txn: Transaction, pairs: "Sequence[tuple]"
) -> int:
    """Batched logical delete of ``(key, rid)`` pairs.

    X-locks every target RID up front, then marks all entries in
    one multi-point traversal (one descent visiting exactly the
    leaves the batch touches, batched WAL emission per leaf).
    Raises :class:`KeyNotFoundError` if any pair is absent or named
    twice — after marking everything that was found, with ``deletes``
    counting the marked entries, mirroring a partially executed loop
    of ``delete`` calls.  Extensions without ``multi_eq_query`` degrade
    to the per-pair protocol.
    """
    txn.require_active()
    pairs, _ = organize_pairs(tree, pairs)
    if not pairs:
        return 0
    query = tree.ext.multi_eq_query([key for key, _ in pairs])
    if query is None:
        for key, rid in pairs:
            tree.delete(txn, key, rid)
        return len(pairs)
    with OpEnvelope(tree, "multi_delete", tree._h_delete_ns):
        for key, rid in pairs:
            tree.db.locks.acquire(txn.xid, tree.rid_lock(rid), LockMode.X)
        targets = set(pairs)
        missing = tree._mark_deleted_batch(txn, query, targets)
        tree.stats.bump("deletes", len(targets) - len(missing))
        if missing or len(targets) < len(pairs):
            # the pair a loop of delete() calls would have failed on
            marked: set = set()
            for pair in pairs:
                if pair in missing or pair in marked:
                    key, rid = pair
                    raise KeyNotFoundError(
                        f"({key!r}, {rid!r}) not found in tree {tree.name!r}"
                    )
                marked.add(pair)
    tree.stats.bump("batch_ops")
    tree.stats.bump("batch_keys", len(pairs))
    if len(pairs) > 1:
        tree.stats.bump("batch_descents_saved", len(pairs) - 1)
    return len(pairs)
