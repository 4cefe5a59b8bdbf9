"""Search (Figure 3) as an incremental, savepoint-restorable cursor.

The cursor owns the traversal stack of Figure 3: entries are ``(page
pointer, memorized counter value)`` pairs; a node whose NSN exceeds the
memorized value has split since the pointer was stacked, and the cursor
compensates by stacking the rightlink with the *original* memo (so the
whole split chain is covered, however many times the node split).

Protocol details implemented here:

* **Signaling locks** (section 7.2): taken when a pointer is stacked
  (under the latch of the node it was read from), released when the node
  is visited — unless pinned by a savepoint (section 10.2).
* **Predicate attachment** (sections 4.3, 5): under repeatable read the
  search predicate is attached to every visited node, top-down, before
  the node's latch is released.
* **FIFO fairness** (section 10.3): after attaching, the cursor checks
  *insert* predicates attached ahead of its own and blocks on their
  owners (latches released first), then rescans the node.
* **Record locking** (section 4.3): qualifying leaf entries' RIDs are
  S-locked — held to end of transaction under repeatable read, instant
  duration under read committed.  Lock waits never happen under a
  latch: the cursor unlatches, blocks, then re-fixes and rescans,
  deduplicating processed entries by ``(key, RID)`` pair (footnote 9's
  data-RID rule, keyed by the full pair so that a tombstone and a
  re-insertion of the same record cannot mask each other).
* **Logical-delete visibility** (section 7): an entry marked deleted is
  skipped once the cursor holds its record lock (the lock guarantees
  the deleter finished; had it aborted, the mark would be gone).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.gist.stack import StackEntry
from repro.lock.modes import LockMode
from repro.predicate.manager import PredicateKind, PredicateLock, PredicateManager
from repro.storage.buffer import Frame
from repro.storage.page import NO_PAGE
from repro.sync.latch import LatchMode
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gist.tree import GiST


class SearchCursor:
    """An open scan over one GiST.

    Parameters
    ----------
    tree, txn, query:
        The tree, owning transaction, and search predicate.
    attach_plock:
        When supplied (unique-index insertion's search phase, section 8),
        this predicate lock is attached to visited nodes instead of a
        freshly registered SEARCH predicate.
    lock_rids:
        Force record locking on/off; defaults to on (data-only locking).
    """

    def __init__(
        self,
        tree: "GiST",
        txn: Transaction,
        query: object,
        *,
        attach_plock: PredicateLock | None = None,
        lock_rids: bool | None = None,
    ) -> None:
        from repro.txn.transaction import IsolationLevel

        self.tree = tree
        self.txn = txn
        self.query = query
        self.repeatable = txn.repeatable_read
        if lock_rids is not None:
            self.lock_rids = lock_rids
        else:
            # Degree 1 reads take no record locks at all (and may see
            # uncommitted data); degrees 2 and 3 lock every qualifying
            # record (instant vs held duration).
            self.lock_rids = (
                txn.isolation is not IsolationLevel.READ_UNCOMMITTED
            )
        self._own_plock = False
        if attach_plock is not None:
            self.plock: PredicateLock | None = attach_plock
        elif self.repeatable:
            self.plock = tree.predicates.register(
                txn.xid, query, PredicateKind.SEARCH
            )
            self._own_plock = True
        else:
            self.plock = None
        memo = tree.nsn.current()
        self.stack: list[StackEntry] = [
            tree._stack_pointer(txn, tree.root_pid, memo)
        ]
        #: (key, RID) pairs already processed — dedup across rescans
        #: (footnote 9 dedupes by data RID; we key by the full pair so a
        #: record re-inserted under a new key while its old tombstone
        #: still awaits garbage collection is not masked)
        self.seen: set = set()
        self._buffer: deque = deque()
        self._closed = False
        txn.register_cursor(self)
        tree.stats.bump("searches")

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------
    def fetch_next(self) -> tuple | None:
        """The next qualifying ``(key, rid)`` pair, or ``None`` at end."""
        while not self._buffer and self.stack:
            self._visit(self.stack.pop())
        if self._buffer:
            return self._buffer.popleft()
        return None

    def fetch_all(self) -> list[tuple]:
        """Drain the cursor."""
        results = []
        while True:
            row = self.fetch_next()
            if row is None:
                return results
            results.append(row)

    def close(self, *, keep_plock: bool = False) -> None:
        """Release traversal state.

        Under repeatable read the search predicate itself stays
        registered until end of transaction (it is what keeps the scanned
        range phantom-free); only the traversal stack's signaling locks
        are surrendered.
        """
        if self._closed:
            return
        self._closed = True
        self.tree._release_path_signaling(self.txn, self.stack)
        self.stack.clear()
        self.txn.unregister_cursor(self)
        # The predicate lock is deliberately NOT unregistered here: an
        # own (RR search) predicate must outlive the cursor to keep the
        # scanned range phantom-free until end of transaction, and a
        # caller-supplied plock (unique-insert probe) is the caller's to
        # release.  ``keep_plock`` exists purely for documentation at
        # call sites.

    # ------------------------------------------------------------------
    # savepoint support (section 10.2)
    # ------------------------------------------------------------------
    def snapshot_stack(self) -> dict:
        """Position snapshot taken when a savepoint is established."""
        return {
            "stack": [entry.copy() for entry in self.stack],
            "seen": set(self.seen),
            "buffer": list(self._buffer),
        }

    def restore_stack(self, snapshot: dict) -> None:
        """Restore the position saved by :meth:`snapshot_stack`.

        The signaling locks protecting the snapshot's stacked pointers
        were pinned at savepoint time, so the pointers are still safe.
        """
        self.stack = [entry.copy() for entry in snapshot["stack"]]
        self.seen = set(snapshot["seen"])
        self._buffer = deque(snapshot["buffer"])

    # ------------------------------------------------------------------
    # node visits
    # ------------------------------------------------------------------
    def _visit(self, entry: StackEntry) -> None:
        tree, txn = self.tree, self.txn
        pool = tree.db.pool
        pid = entry.pid
        last_handled = entry.memo
        is_leaf = False
        while True:
            frame = pool.fix(pid, LatchMode.S)
            page = frame.page
            # Split detection (section 3): the rightlink is stacked with
            # the memo that delimits the chain; ``last_handled`` advances
            # so that further splits observed on a rescan stack exactly
            # the not-yet-covered sibling.
            if page.nsn > last_handled and page.rightlink != NO_PAGE:
                tree.stats.bump("rightlink_follows")
                tree.stats.bump("nsn_restarts")
                tree._note_event(
                    "gist.restart.nsn_mismatch",
                    pid=pid,
                    memo=last_handled,
                    nsn=page.nsn,
                )
                self.stack.append(
                    StackEntry(page.rightlink, last_handled)
                )
                last_handled = page.nsn
            if self.plock is not None:
                tree.predicates.attach(self.plock, pid)
                conflicts = tree.predicates.conflicting(
                    pid,
                    self.query,
                    kinds=(PredicateKind.INSERT,),
                    exclude_owner=txn.xid,
                    before=self.plock,
                )
                if conflicts:
                    pool.unfix(frame)
                    tree.stats.bump("predicate_blocks")
                    PredicateManager.wait_for_owners(
                        tree.db.locks, txn.xid, conflicts
                    )
                    continue  # rescan the node
            is_leaf = page.is_leaf
            if is_leaf:
                blocked_rid = self._scan_leaf_once(frame)
                pool.unfix(frame)
                if blocked_rid is None:
                    break
                self._block_on_rid(blocked_rid)
                continue  # rescan the leaf, dedup via self.seen
            child_memo = tree.nsn.memo_for_children(page)
            consistent, query = tree.ext.consistent, self.query
            for node_entry in page.entries:
                if consistent(node_entry.pred, query):
                    self.stack.append(
                        tree._stack_pointer(txn, node_entry.child, child_memo)
                    )
            pool.unfix(frame)
            break
        tree._release_signaling(txn, pid)
        tree.db.hooks.fire("search:node-visited", pid=pid, is_leaf=is_leaf)

    def _scan_leaf_once(self, frame: Frame):
        """One pass over the latched leaf; returns a RID to block on,
        or ``None`` when the pass completed."""
        tree, txn = self.tree, self.txn
        locks = tree.db.locks
        consistent, query, seen = tree.ext.consistent, self.query, self.seen
        for entry in frame.page.entries:
            # Both tests are pure filters; the predicate goes first so
            # that only matching entries pay for hashing the pair.
            if not consistent(entry.key, query):
                continue
            if (entry.key, entry.rid) in seen:
                continue
            if self.lock_rids:
                granted = locks.acquire(
                    txn.xid,
                    tree.rid_lock(entry.rid),
                    LockMode.S,
                    wait=False,
                )
                if not granted:
                    return entry.rid
            # Holding the record lock: a deletion mark can only belong
            # to a finished (committed) deleter or to this transaction;
            # either way the entry is invisible (section 7).
            seen.add((entry.key, entry.rid))
            if not entry.deleted:
                self._buffer.append((entry.key, entry.rid))
            if self.lock_rids and not self.repeatable:
                # read committed: instant-duration lock
                locks.release(txn.xid, tree.rid_lock(entry.rid))
        return None

    def _block_on_rid(self, rid: object) -> None:
        """Wait for the record lock with no latches held, then return
        so the caller can re-validate via rescan."""
        tree, txn = self.tree, self.txn
        tree.db.locks.acquire(
            txn.xid, tree.rid_lock(rid), LockMode.S, wait=True
        )
        if not self.repeatable:
            tree.db.locks.release(txn.xid, tree.rid_lock(rid))
