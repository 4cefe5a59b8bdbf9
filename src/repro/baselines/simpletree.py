"""Protocol-isolated baseline trees.

These trees share the production storage substrate (pages, buffer pool,
simulated-I/O disk) and the same extension interface as the real GiST,
but strip away transactions, WAL and predicate locking.  What varies is
*only* the concurrency-control protocol, so head-to-head benchmarks
isolate the quantity the paper's claims are about:

=====================  ======================================================
:class:`NaiveTree`     no split compensation at all — structurally sound but
                       traversals can miss concurrent splits; reproduces the
                       Figure 1 anomaly
:class:`LinkTree`      the paper's protocol (NSN + rightlink, no coupling):
                       no latch is ever held across an I/O
:class:`CouplingTree`  latch-coupling descent (hold the parent latch while
                       fetching the child — i.e. across the child's I/O);
                       writers release ancestors above the highest safe node
:class:`SubtreeTree`   conservative subtree X-locking in the spirit of
                       [BS77]: a writer X-latches its entire root-to-leaf
                       path for the duration of the operation
=====================  ======================================================

All four expose the same non-transactional API (``insert``, ``search``,
``delete``) so the benchmark driver can swap them freely.
"""

from __future__ import annotations

import threading

from repro.errors import ReproError
from repro.gist.extension import GiSTExtension
from repro.storage.buffer import BufferPool, Frame
from repro.storage.disk import PageStore
from repro.storage.page import (
    NO_PAGE,
    InternalEntry,
    LeafEntry,
    Page,
    PageId,
    PageKind,
)
from repro.sync.hooks import NULL_HOOKS, Hooks
from repro.sync.latch import LatchMode


class _Restart(Exception):
    """Internal: the descent must restart (e.g. the root just grew)."""


class BaselineStats:
    """Counters shared by the baseline trees."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.searches = 0
        self.inserts = 0
        self.splits = 0
        self.rightlink_follows = 0
        self.restarts = 0

    def bump(self, field: str, amount: int = 1) -> None:
        """Increment a named counter."""
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)


def _pred_of(entry: LeafEntry | InternalEntry) -> object:
    return entry.key if isinstance(entry, LeafEntry) else entry.pred


class BaselineTree:
    """Shared mechanics: storage, splits, BP maintenance."""

    #: protocol label used in benchmark reports
    protocol = "abstract"

    def __init__(
        self,
        extension: GiSTExtension,
        *,
        io_delay: float = 0.0,
        page_capacity: int = 32,
        pool_capacity: int = 4096,
        hooks: Hooks | None = None,
        store: PageStore | None = None,
        pool: BufferPool | None = None,
    ) -> None:
        self.ext = extension
        self.store = store or PageStore(
            io_delay=io_delay, page_capacity=page_capacity
        )
        self.pool = pool or BufferPool(self.store, capacity=pool_capacity)
        self.hooks = hooks or NULL_HOOKS
        self.stats = BaselineStats()
        root = self.store.new_page(PageKind.LEAF)
        frame = self.pool.adopt(root)
        frame.dirty = True
        self.root_pid = root.pid
        self._nsn_lock = threading.Lock()
        self._nsn = 0

    # ------------------------------------------------------------------
    # NSN helpers (used by LinkTree; others ignore them)
    # ------------------------------------------------------------------
    def _nsn_current(self) -> int:
        with self._nsn_lock:
            return self._nsn

    def _nsn_next(self) -> int:
        with self._nsn_lock:
            self._nsn += 1
            return self._nsn

    # ------------------------------------------------------------------
    # split mechanics
    # ------------------------------------------------------------------
    def _recompute_bp(self, page: Page) -> None:
        page.bp = self.ext.union([_pred_of(e) for e in page.entries])

    def _do_split(
        self, frame: Frame, parent_frame: Frame, *, link: bool
    ) -> tuple[Frame, Frame]:
        """Split ``frame`` (X-latched, non-root); install the downlink in
        ``parent_frame`` (X-latched, has room).  Returns (orig, new),
        both X-latched."""
        page = frame.page
        stay_idx, move_idx = self.ext.pick_split(
            [_pred_of(e) for e in page.entries]
        )
        new_page = self.store.new_page(page.kind, page.level)
        new_frame = self.pool.adopt(new_page)
        self.pool.pin(new_page.pid)
        try:
            new_frame.latch.acquire(LatchMode.X)
        except BaseException:
            # never strand the pin if the latch grant fails
            self.pool.unpin(new_page.pid)
            raise
        new_page.entries = [page.entries[i].copy() for i in move_idx]
        page.entries = [page.entries[i] for i in stay_idx]
        self._recompute_bp(new_page)
        self._recompute_bp(page)
        if link:
            new_page.nsn = page.nsn
            new_page.rightlink = page.rightlink
            page.nsn = self._nsn_next()
            page.rightlink = new_page.pid
        frame.dirty = True
        new_frame.dirty = True
        self.stats.bump("splits")
        parent_page = parent_frame.page
        entry = parent_page.find_child_entry(page.pid)
        if entry is not None:
            entry.pred = page.bp
        parent_page.add_entry(InternalEntry(new_page.bp, new_page.pid))
        parent_frame.dirty = True
        self.hooks.fire(
            "insert:after-split", pid=page.pid, new_pid=new_page.pid
        )
        return frame, new_frame

    def _grow_root(self, frame: Frame, *, link: bool) -> None:
        """Root split: move contents into two children (stable root id)."""
        page = frame.page
        stay_idx, move_idx = self.ext.pick_split(
            [_pred_of(e) for e in page.entries]
        )
        kind, level = page.kind, page.level
        left = self.store.new_page(kind, level)
        right = self.store.new_page(kind, level)
        left_frame = self.pool.adopt(left)
        right_frame = self.pool.adopt(right)
        left.entries = [page.entries[i].copy() for i in stay_idx]
        right.entries = [page.entries[i].copy() for i in move_idx]
        for child in (left, right):
            self._recompute_bp(child)
            child.nsn = page.nsn
        if link:
            left.rightlink = right.pid
        page.kind = PageKind.INTERNAL
        page.level = level + 1
        page.entries = [
            InternalEntry(left.bp, left.pid),
            InternalEntry(right.bp, right.pid),
        ]
        if link:
            page.nsn = self._nsn_next()
        frame.dirty = True
        left_frame.dirty = True
        right_frame.dirty = True
        self.stats.bump("splits")
        self.hooks.fire(
            "insert:after-split", pid=page.pid, new_pid=right.pid
        )

    # ------------------------------------------------------------------
    # held-path insertion (naive / coupling / subtree variants)
    # ------------------------------------------------------------------
    def _ensure_room(self, path: list[Frame], i: int, *, link: bool) -> None:
        """Make sure ``path[i]`` can take one more entry, splitting it
        (and ancestors, recursively) while the whole path is X-latched.
        Raises :class:`_Restart` when the root grows."""
        frame = path[i]
        if not frame.page.is_full:
            return
        if frame.page.pid == self.root_pid:
            self._grow_root(frame, link=link)
            raise _Restart()
        self._ensure_room(path, i - 1, link=link)
        orig, new = self._do_split(frame, path[i - 1], link=link)
        if i < len(path) - 1:
            below = path[i + 1].page.pid
            keep = (
                orig
                if orig.page.find_child_entry(below) is not None
                else new
            )
        else:
            keep = orig if not orig.page.is_full else new
        drop = new if keep is orig else orig
        self.pool.unfix(drop)
        path[i] = keep

    def _insert_on_held_path(
        self, path: list[Frame], key: object, rid: object, *, link: bool
    ) -> None:
        """Finish an insertion once a full root-to-leaf path is held."""
        self._ensure_room(path, len(path) - 1, link=link)
        leaf = path[-1]
        # pick the cheaper side if the ensure-room split left a choice
        leaf.page.add_entry(LeafEntry(key, rid))
        leaf.dirty = True
        # expand BPs and parent entries bottom-up along the held path
        for i in range(len(path) - 1, -1, -1):
            page = path[i].page
            if page.pid == self.root_pid:
                break
            if page.bp is not None and self.ext.covers(page.bp, key):
                break
            page.bp = (
                self.ext.union([page.bp, key])
                if page.bp is not None
                else self.ext.union([key])
            )
            path[i].dirty = True
            parent_entry = path[i - 1].page.find_child_entry(page.pid)
            if parent_entry is not None:
                parent_entry.pred = page.bp
                path[i - 1].dirty = True

    # ------------------------------------------------------------------
    # shared read-only helpers
    # ------------------------------------------------------------------
    def contents(self) -> list[tuple]:
        """Quiesced dump of all live (key, rid) pairs."""
        out = []
        frontier = [self.root_pid]
        seen: set[PageId] = set()
        while frontier:
            pid = frontier.pop()
            if pid in seen or pid == NO_PAGE:
                continue
            seen.add(pid)
            with self.pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page
                if page.rightlink != NO_PAGE:
                    frontier.append(page.rightlink)
                if page.is_leaf:
                    out.extend(
                        (e.key, e.rid)
                        for e in page.entries
                        if not e.deleted
                    )
                else:
                    frontier.extend(e.child for e in page.entries)
        return out

    def delete(self, key: object, rid: object) -> bool:
        """Physical delete (baselines have no transactions)."""
        eq = self.ext.eq_query(key)
        stack = [self.root_pid]
        while stack:
            pid = stack.pop()
            with self.pool.fixed(pid, LatchMode.X) as frame:
                page = frame.page
                if page.is_leaf:
                    entry = page.find_leaf_entry(key, rid)
                    if entry is not None:
                        page.entries.remove(entry)
                        frame.dirty = True
                        return True
                else:
                    stack.extend(
                        e.child
                        for e in page.entries
                        if self.ext.consistent(e.pred, eq)
                    )
        return False


class _HeldPathTree(BaselineTree):
    """Shared writer for the coupled baselines: the descent X-latches
    its entire root-to-leaf path and holds it for the whole insertion
    (splits and BP updates then need no re-location machinery)."""

    def insert(self, key: object, rid: object) -> None:
        """Insert a ``(key, rid)`` pair under this protocol's latching discipline."""
        self.stats.bump("inserts")
        while True:
            path: list[Frame] = []
            try:
                pid = self.root_pid
                while True:
                    frame = self.pool.fix(pid, LatchMode.X)
                    path.append(frame)
                    page = frame.page
                    if page.is_leaf:
                        break
                    best = min(
                        page.entries,
                        key=lambda e: self.ext.penalty(e.pred, key),
                    )
                    pid = best.child
                self._insert_on_held_path(path, key, rid, link=False)
                return
            except _Restart:
                self.stats.bump("restarts")
            finally:
                for frame in path:
                    self.pool.unfix(frame)


class LinkTree(BaselineTree):
    """The paper's link protocol, minus transactions.

    Neither readers nor writers ever hold a latch while fetching another
    node; missed splits are detected via NSNs and compensated by walking
    rightlinks.  Structure modifications re-locate the parent bottom-up
    exactly as Figure 4 prescribes.

    ``_link = False`` (the :class:`NaiveTree` subclass) keeps the exact
    same fine-grained latching but performs no NSN/rightlink juggling —
    the honest "implemented GiST without thinking about concurrency"
    baseline whose traversals can silently miss splits.
    """

    protocol = "link"
    _link = True

    # -------------------------- search --------------------------------
    def search(self, query: object) -> list[tuple]:
        """All live ``(key, rid)`` pairs matching the query (protocol-specific traversal)."""
        self.stats.bump("searches")
        results: list[tuple] = []
        stack = [(self.root_pid, self._nsn_current())]
        while stack:
            pid, memo = stack.pop()
            with self.pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page
                if page.nsn > memo and page.rightlink != NO_PAGE:
                    self.stats.bump("rightlink_follows")
                    stack.append((page.rightlink, memo))
                if page.is_leaf:
                    results.extend(
                        (e.key, e.rid)
                        for e in page.entries
                        if not e.deleted
                        and self.ext.consistent(e.key, query)
                    )
                else:
                    child_memo = self._nsn_current()
                    stack.extend(
                        (e.child, child_memo)
                        for e in page.entries
                        if self.ext.consistent(e.pred, query)
                    )
            self.hooks.fire(
                "search:node-visited", pid=pid, is_leaf=page.is_leaf
            )
        return results

    # -------------------------- insert --------------------------------
    def insert(self, key: object, rid: object) -> None:
        """Insert a ``(key, rid)`` pair under this protocol's latching discipline."""
        self.stats.bump("inserts")
        while True:
            try:
                self._try_insert(key, rid)
                return
            except _Restart:
                self.stats.bump("restarts")

    def _try_insert(self, key: object, rid: object) -> None:
        hints: list[PageId] = []  # visited ancestors, for parent fixing
        pid = self.root_pid
        memo = self._nsn_current()
        while True:
            frame = self.pool.fix(pid, LatchMode.X)
            frame = self._follow_chain(frame, memo, key)
            page = frame.page
            if page.is_leaf:
                break
            hints.append(page.pid)
            best = min(
                page.entries, key=lambda e: self.ext.penalty(e.pred, key)
            )
            memo = self._nsn_current()
            pid = best.child
            self.pool.unfix(frame)
        # leaf X-latched, no other latches held
        if page.is_full:
            frame = self._split_link(frame, hints, key)
            page = frame.page
        self._expand_up(frame, hints, key)
        page.add_entry(LeafEntry(key, rid))
        frame.dirty = True
        self.pool.unfix(frame)

    def _follow_chain(self, frame: Frame, memo: int, key: object) -> Frame:
        """Walk the split chain delimited by ``memo`` and keep the
        min-penalty node latched (at most two latches, left-to-right)."""
        mode = frame.latch.held_by_me() or LatchMode.X

        def pen(f: Frame) -> float:
            return (
                0.0
                if f.page.bp is None
                else self.ext.penalty(f.page.bp, key)
            )

        best, current = frame, frame
        best_pen = pen(frame)
        while current.page.nsn > memo and current.page.rightlink != NO_PAGE:
            nxt = self.pool.fix(current.page.rightlink, mode)
            self.stats.bump("rightlink_follows")
            if current is not best:
                self.pool.unfix(current)
            if pen(nxt) < best_pen:
                if best is not nxt:
                    self.pool.unfix(best)
                best, best_pen = nxt, pen(nxt)
            current = nxt
        if current is not best:
            self.pool.unfix(current)
        return best

    def _fix_parent_x(self, child_pid: PageId, hints: list[PageId]) -> Frame:
        """X-latch the node currently holding ``child_pid``'s downlink."""
        pid = hints[-1] if hints else self.root_pid
        while pid != NO_PAGE:
            frame = self.pool.fix(pid, LatchMode.X)
            if frame.page.find_child_entry(child_pid) is not None:
                return frame
            nxt = frame.page.rightlink
            self.pool.unfix(frame)
            self.stats.bump("rightlink_follows")
            pid = nxt
        # fallback: breadth-first re-descent from the root
        frontier = [self.root_pid]
        seen: set[PageId] = set()
        while frontier:
            pid = frontier.pop()
            if pid in seen or pid == NO_PAGE or pid == child_pid:
                continue
            seen.add(pid)
            frame = self.pool.fix(pid, LatchMode.X)
            page = frame.page
            if page.is_internal and page.find_child_entry(child_pid):
                return frame
            if page.is_internal:
                frontier.extend(e.child for e in page.entries)
            if page.rightlink != NO_PAGE:
                frontier.append(page.rightlink)
            self.pool.unfix(frame)
        raise ReproError(f"parent of page {child_pid} not found")

    def _split_link(
        self, frame: Frame, hints: list[PageId], key: object
    ) -> Frame:
        """Bottom-up split with NSN/rightlink juggling (Figure 4)."""
        page = frame.page
        if page.pid == self.root_pid:
            self._grow_root(frame, link=self._link)
            self.pool.unfix(frame)
            raise _Restart()
        parent = self._fix_parent_x(page.pid, hints)
        if parent.page.is_full:
            try:
                parent = self._split_internal_link(
                    parent, hints[:-1], page.pid
                )
            except _Restart:
                self.pool.unfix(frame)
                raise
        orig, new = self._do_split(frame, parent, link=self._link)
        self.pool.unfix(parent)
        keep = (
            orig
            if not orig.page.is_full
            and self.ext.penalty(orig.page.bp, key)
            <= self.ext.penalty(new.page.bp, key)
            else new
        )
        drop = new if keep is orig else orig
        self.pool.unfix(drop)
        return keep

    def _split_internal_link(
        self, frame: Frame, hints: list[PageId], locate_child: PageId
    ) -> Frame:
        """Split a full internal node; return the X-latched side still
        holding ``locate_child``'s downlink."""
        page = frame.page
        if page.pid == self.root_pid:
            self._grow_root(frame, link=self._link)
            self.pool.unfix(frame)
            raise _Restart()
        parent = self._fix_parent_x(page.pid, hints)
        if parent.page.is_full:
            try:
                parent = self._split_internal_link(
                    parent, hints[:-1] if hints else [], page.pid
                )
            except _Restart:
                self.pool.unfix(frame)
                raise
        orig, new = self._do_split(frame, parent, link=self._link)
        self.pool.unfix(parent)
        keep = (
            orig
            if orig.page.find_child_entry(locate_child) is not None
            else new
        )
        drop = new if keep is orig else orig
        self.pool.unfix(drop)
        return keep

    def _expand_up(
        self, frame: Frame, hints: list[PageId], key: object
    ) -> None:
        """Expand BPs from ``frame`` upward (bottom-up latching)."""
        page = frame.page
        if page.pid == self.root_pid:
            return
        if page.bp is not None and self.ext.covers(page.bp, key):
            return
        parent = self._fix_parent_x(page.pid, hints)
        try:
            self._expand_up(parent, hints[:-1] if hints else [], key)
            page.bp = (
                self.ext.union([page.bp, key])
                if page.bp is not None
                else self.ext.union([key])
            )
            frame.dirty = True
            entry = parent.page.find_child_entry(page.pid)
            if entry is not None:
                entry.pred = page.bp
                parent.dirty = True
        finally:
            self.pool.unfix(parent)


class NaiveTree(LinkTree):
    """No split compensation — LinkTree's fine-grained latching without
    the NSN/rightlink juggling.

    Writers latch one node at a time exactly like the link protocol, but
    splits neither chain the sibling nor stamp sequence numbers, and
    readers stack bare child pointers with no way to notice a split that
    moved entries sideways — Figure 1's anomaly, at full concurrency.
    """

    protocol = "naive"
    _link = False

    def search(self, query: object) -> list[tuple]:
        """All live ``(key, rid)`` pairs matching the query (protocol-specific traversal)."""
        self.stats.bump("searches")
        results: list[tuple] = []
        stack = [self.root_pid]
        while stack:
            pid = stack.pop()
            with self.pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page
                if page.is_leaf:
                    results.extend(
                        (e.key, e.rid)
                        for e in page.entries
                        if not e.deleted
                        and self.ext.consistent(e.key, query)
                    )
                else:
                    stack.extend(
                        e.child
                        for e in page.entries
                        if self.ext.consistent(e.pred, query)
                    )
            self.hooks.fire(
                "search:node-visited", pid=pid, is_leaf=page.is_leaf
            )
        return results


class CouplingTree(_HeldPathTree):
    """Latch-coupling: hold the parent latch while fetching the child.

    Readers crab with S latches — every child fetch, including its disk
    I/O on a buffer miss, happens while the parent latch is held.
    Writers hold their descent path in X mode but release ancestors
    above a *safe* child (not full, BP covers the key).
    """

    protocol = "coupling"

    def search(self, query: object) -> list[tuple]:
        """All live ``(key, rid)`` pairs matching the query (protocol-specific traversal)."""
        self.stats.bump("searches")
        results: list[tuple] = []
        self._search_coupled(self.root_pid, None, query, results)
        return results

    def _search_coupled(
        self,
        pid: PageId,
        parent: Frame | None,
        query: object,
        results: list[tuple],
    ) -> None:
        # The child is fetched — and its I/O paid — while the parent
        # latch is still held; that is the whole point of this baseline.
        frame = self.pool.fix(pid, LatchMode.S)
        page = frame.page
        if page.is_leaf:
            if parent is not None:
                self.pool.unfix(parent)
            results.extend(
                (e.key, e.rid)
                for e in page.entries
                if not e.deleted and self.ext.consistent(e.key, query)
            )
            self.pool.unfix(frame)
            self.hooks.fire("search:node-visited", pid=pid, is_leaf=True)
            return
        children = [
            e.child
            for e in page.entries
            if self.ext.consistent(e.pred, query)
        ]
        self.hooks.fire("search:node-visited", pid=pid, is_leaf=False)
        if parent is not None:
            self.pool.unfix(parent)
        if not children:
            self.pool.unfix(frame)
            return
        # Multi-subtree descent: the node stays latched until its last
        # qualifying child takes over the coupling (repositioning is
        # impossible in a non-partitioning tree, section 11).
        for child in children[:-1]:
            self._search_coupled(child, None, query, results)
        self._search_coupled(children[-1], frame, query, results)

    def insert(self, key: object, rid: object) -> None:
        """Insert a ``(key, rid)`` pair under this protocol's latching discipline."""
        self.stats.bump("inserts")
        while True:
            path: list[Frame] = []
            try:
                pid = self.root_pid
                while True:
                    frame = self.pool.fix(pid, LatchMode.X)
                    path.append(frame)
                    page = frame.page
                    safe = (
                        not page.is_full
                        and (
                            page.pid == self.root_pid
                            or (
                                page.bp is not None
                                and self.ext.covers(page.bp, key)
                            )
                        )
                    )
                    if safe and len(path) > 1:
                        for ancestor in path[:-1]:
                            self.pool.unfix(ancestor)
                        path = [frame]
                    if page.is_leaf:
                        break
                    best = min(
                        page.entries,
                        key=lambda e: self.ext.penalty(e.pred, key),
                    )
                    pid = best.child
                if (
                    path[-1].page.is_full
                    and len(path) == 1
                    and path[0].page.pid != self.root_pid
                ):
                    # ancestors were released as safe, but the leaf has
                    # filled up since: restart holding the full path
                    raise _Restart()
                self._insert_on_held_path(path, key, rid, link=False)
                return
            except _Restart:
                self.stats.bump("restarts")
            finally:
                for frame in path:
                    self.pool.unfix(frame)


class SubtreeTree(_HeldPathTree):
    """[BS77]-style conservative writer: the entire root-to-leaf path is
    X-latched for the whole operation; readers couple S latches."""

    protocol = "subtree"

    def search(self, query: object) -> list[tuple]:
        """All live ``(key, rid)`` pairs matching the query (protocol-specific traversal)."""
        return CouplingTree.search(self, query)  # type: ignore[arg-type]

    _search_coupled = CouplingTree._search_coupled


PROTOCOLS: dict[str, type[BaselineTree]] = {
    "naive": NaiveTree,
    "link": LinkTree,
    "coupling": CouplingTree,
    "subtree": SubtreeTree,
}


def make_baseline(
    protocol: str, extension: GiSTExtension, **kwargs
) -> BaselineTree:
    """Factory: build a baseline tree by protocol name."""
    try:
        cls = PROTOCOLS[protocol]
    except KeyError:
        raise ReproError(f"unknown baseline protocol {protocol!r}") from None
    return cls(extension, **kwargs)
