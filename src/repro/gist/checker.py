"""Tree-invariant checking.

Used by the test suite and the crash-injection harness to assert that a
tree is structurally consistent — in particular after restart recovery,
where the paper's correctness claim is exactly that the tree is brought
back to a consistent state reflecting all committed and no uncommitted
content changes (section 9).

Checked invariants:

1. every page reachable from the root is allocated and of the expected
   kind for its level (leaves at level 0, internals above);
2. every internal entry's predicate bounds the *entire* content of the
   child's split chain segment it is responsible for — i.e. the union of
   the child subtree's keys is consistent-with (and covered by) the
   parent predicate, modulo rightlinks to siblings that have their own
   downlinks;
3. each node's stored BP covers all of its (live) content;
4. rightlink chains are acyclic and stay within one level;
5. NSNs never exceed the end-of-log LSN (NSNs are LSNs, section 10.1);
6. the leaves partition the RID set: no RID appears twice (section 2);
7. every leaf entry is reachable by a search with its own key;
8. in a tree whose extension declares an order, every node's entries
   are sorted by order key (node visits bisect on it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gist.tree import GiST
from repro.storage.page import NO_PAGE, PageId, order_key
from repro.sync.latch import LatchMode


@dataclass
class CheckReport:
    """Result of a consistency check."""

    ok: bool = True
    errors: list[str] = field(default_factory=list)
    pages: int = 0
    leaf_entries: int = 0
    live_entries: int = 0

    def fail(self, message: str) -> None:
        """Record a violation and mark the report failed."""
        self.ok = False
        self.errors.append(message)


def check_tree(tree: GiST, *, check_reachability: bool = True) -> CheckReport:
    """Verify the structural invariants of ``tree``.

    Intended for quiesced trees (tests, post-recovery); it takes S
    latches page by page but does not lock, so concurrent writers can
    produce false positives.
    """
    from repro.errors import PageError

    report = CheckReport()
    pool = tree.db.pool
    pages: dict[PageId, object] = {}
    frontier = [tree.root_pid]
    while frontier:
        pid = frontier.pop()
        if pid in pages or pid == NO_PAGE:
            continue
        try:
            with pool.fixed(pid, LatchMode.S) as frame:
                page = frame.page.snapshot()
        except PageError:
            report.fail(f"referenced page {pid} does not exist")
            continue
        pages[pid] = page
        if page.rightlink != NO_PAGE:
            frontier.append(page.rightlink)
        if page.is_internal:
            frontier.extend(e.child for e in page.entries)
    report.pages = len(pages)

    _check_levels_and_links(tree, pages, report)
    _check_bounding_predicates(tree, pages, report)
    _check_rid_partition(tree, pages, report)
    _check_nsns(tree, pages, report)
    _check_order(tree, pages, report)
    if check_reachability and report.ok:
        _check_reachability(tree, pages, report)
    return report


def _check_levels_and_links(tree, pages, report) -> None:
    for pid, page in pages.items():
        if page.is_leaf and page.level != 0:
            report.fail(f"leaf page {pid} has level {page.level}")
        if page.is_internal and page.level == 0:
            report.fail(f"internal page {pid} has level 0")
        if page.rightlink != NO_PAGE:
            sibling = pages.get(page.rightlink)
            if sibling is None:
                report.fail(
                    f"page {pid} rightlink {page.rightlink} unreachable"
                )
            elif sibling.level != page.level:
                report.fail(
                    f"page {pid} (level {page.level}) links to "
                    f"{page.rightlink} (level {sibling.level})"
                )
        if page.is_internal:
            for entry in page.entries:
                child = pages.get(entry.child)
                if child is None:
                    report.fail(
                        f"page {pid} has dangling downlink {entry.child}"
                    )
                elif child.level != page.level - 1:
                    report.fail(
                        f"page {pid} (level {page.level}) points to "
                        f"{entry.child} (level {child.level})"
                    )
    # acyclicity of rightlink chains
    for pid, page in pages.items():
        slow = pid
        seen = set()
        while slow != NO_PAGE:
            if slow in seen:
                report.fail(f"rightlink cycle through page {pid}")
                break
            seen.add(slow)
            nxt = pages.get(slow)
            slow = nxt.rightlink if nxt is not None else NO_PAGE


def _subtree_preds(tree, pages, pid, out: list) -> None:
    page = pages[pid]
    if page.is_leaf:
        out.extend(e.key for e in page.entries if not e.deleted)
    else:
        for entry in page.entries:
            if entry.child in pages:
                _subtree_preds(tree, pages, entry.child, out)


def _check_bounding_predicates(tree, pages, report) -> None:
    ext = tree.ext
    for pid, page in pages.items():
        # node's own BP covers its live content
        if page.bp is not None:
            if page.is_leaf:
                content = [e.key for e in page.entries if not e.deleted]
            else:
                content = [e.pred for e in page.entries]
            for pred in content:
                if not ext.covers(page.bp, pred):
                    report.fail(
                        f"page {pid} BP {page.bp!r} does not cover "
                        f"{pred!r}"
                    )
        # every downlink's predicate bounds the child subtree
        if page.is_internal:
            for entry in page.entries:
                if entry.child not in pages:
                    continue
                keys: list = []
                _subtree_preds(tree, pages, entry.child, keys)
                for key in keys:
                    if not ext.covers(entry.pred, key):
                        report.fail(
                            f"downlink {pid}->{entry.child} pred "
                            f"{entry.pred!r} misses key {key!r}"
                        )


def _check_rid_partition(tree, pages, report) -> None:
    # The partition rule (section 2: exactly one leaf entry per data
    # record) applies to *live* entries; a committed tombstone may
    # transiently coexist with the record's re-insertion until garbage
    # collection sweeps it.
    seen: dict[object, PageId] = {}
    for pid, page in pages.items():
        if not page.is_leaf:
            continue
        for entry in page.entries:
            report.leaf_entries += 1
            if entry.deleted:
                continue
            report.live_entries += 1
            if entry.rid in seen:
                report.fail(
                    f"RID {entry.rid!r} live on both page "
                    f"{seen[entry.rid]} and page {pid}"
                )
            seen[entry.rid] = pid


def _check_nsns(tree, pages, report) -> None:
    end_lsn = tree.db.log.end_lsn
    for pid, page in pages.items():
        if page.nsn > end_lsn:
            report.fail(
                f"page {pid} NSN {page.nsn} exceeds the end of the log "
                f"{end_lsn}"
            )


def _check_order(tree, pages, report) -> None:
    if tree.ext.query_bounds is None:
        return
    for pid, page in pages.items():
        keys = [
            order_key(e.key if page.is_leaf else e.pred) for e in page.entries
        ]
        for i in range(1, len(keys)):
            if keys[i] < keys[i - 1]:
                report.fail(
                    f"page {pid} entry {i} (order key {keys[i]!r}) sorts "
                    f"before its predecessor ({keys[i - 1]!r})"
                )
                break


def _check_reachability(tree, pages, report) -> None:
    """Every live leaf entry must be found by searching for its key."""
    ext = tree.ext
    for pid, page in pages.items():
        if not page.is_leaf:
            continue
        for entry in page.entries:
            if entry.deleted:
                continue
            if not _reachable(ext, pages, tree.root_pid, entry.key):
                report.fail(
                    f"live entry ({entry.key!r}, {entry.rid!r}) on page "
                    f"{pid} is unreachable from the root"
                )


def _reachable(ext, pages, pid, key) -> bool:
    page = pages.get(pid)
    if page is None:
        return False
    if page.is_leaf:
        return any(
            not e.deleted and e.key == key for e in page.entries
        ) or (
            page.rightlink != NO_PAGE
            and _reachable(ext, pages, page.rightlink, key)
        )
    query = ext.eq_query(key)
    for entry in page.entries:
        if ext.consistent(entry.pred, query) and _reachable(
            ext, pages, entry.child, key
        ):
            return True
    return False
