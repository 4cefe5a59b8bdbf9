"""Human-readable inspection of trees, logs and database state.

Debugging a concurrent index is mostly staring at structure dumps; this
module renders them.  Everything returns strings (callers print), takes
read latches only, and is safe on a live database — output may be a
fuzzy snapshot under concurrency, exactly like any other reader.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.page import NO_PAGE, PageId
from repro.sync.latch import LatchMode
from repro.wal.log import LogManager
from repro.wal.records import (
    NULL_LSN,
    AddLeafEntryRecord,
    CheckpointRecord,
    CommitRecord,
    DummyClr,
    EndRecord,
    GarbageCollectionRecord,
    InternalEntryAddRecord,
    MarkLeafEntryRecord,
    ParentEntryUpdateRecord,
    RootSplitRecord,
    SplitRecord,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.gist.tree import GiST


def dump_tree(tree: "GiST", *, max_entries: int = 6) -> str:
    """An indented structural dump of the whole tree.

    Shows, per node: pid, kind, level, NSN, rightlink, BP, and up to
    ``max_entries`` entries (with deletion markers on tombstones).
    """
    pool = tree.db.pool
    lines = [
        f"tree {tree.name!r} (root pid {tree.root_pid}, "
        f"extension {tree.ext.name})"
    ]

    def render(pid: PageId, depth: int, seen: set[PageId]) -> None:
        if pid in seen:
            lines.append("  " * depth + f"[cycle -> {pid}]")
            return
        seen.add(pid)
        with pool.fixed(pid, LatchMode.S) as frame:
            page = frame.page.snapshot()
        indent = "  " * depth
        right = (
            f" ->{page.rightlink}" if page.rightlink != NO_PAGE else ""
        )
        lines.append(
            f"{indent}[{page.pid}] {page.kind.value} L{page.level} "
            f"nsn={page.nsn}{right} "
            f"n={len(page.entries)}/{page.capacity} bp={page.bp!r}"
        )
        if page.is_leaf:
            shown = page.entries[:max_entries]
            for entry in shown:
                marker = (
                    f"  (deleted by {entry.delete_xid})"
                    if entry.deleted
                    else ""
                )
                lines.append(
                    f"{indent}  - {entry.key!r} => {entry.rid!r}{marker}"
                )
            if len(page.entries) > max_entries:
                lines.append(
                    f"{indent}  ... {len(page.entries) - max_entries} more"
                )
        else:
            for entry in page.entries:
                lines.append(
                    f"{indent}  |- {entry.pred!r} -> {entry.child}"
                )
            for entry in page.entries:
                render(entry.child, depth + 1, seen)

    render(tree.root_pid, 0, set())
    return "\n".join(lines)


def describe_record(record) -> str:
    """One-line description of a log record."""
    base = f"{record.lsn:>5}  x{record.xid:<4} {record.type_name():<26}"
    if isinstance(record, AddLeafEntryRecord):
        detail = f"page={record.page_id} +({record.key!r},{record.rid!r})"
    elif isinstance(record, MarkLeafEntryRecord):
        detail = f"page={record.page_id} ~({record.key!r},{record.rid!r})"
    elif isinstance(record, SplitRecord):
        detail = (
            f"{record.orig_pid} => {record.new_pid} "
            f"(moved {len(record.moved_entries)}, nsn {record.old_nsn}"
            f"->{record.new_nsn})"
        )
    elif isinstance(record, RootSplitRecord):
        detail = (
            f"root {record.root_pid} -> children "
            f"{record.left_pid},{record.right_pid}"
        )
    elif isinstance(record, ParentEntryUpdateRecord):
        detail = f"child={record.child_pid} parent={record.parent_pid}"
    elif isinstance(record, InternalEntryAddRecord):
        detail = f"page={record.page_id} +child {record.child}"
    elif isinstance(record, GarbageCollectionRecord):
        detail = f"page={record.page_id} -{len(record.rids)} entries"
    elif isinstance(record, DummyClr):
        detail = f"nta-end (undo_next={record.undo_next})"
    elif isinstance(record, CheckpointRecord):
        detail = (
            f"begin={record.begin_lsn} att={len(record.att)} "
            f"dpt={len(record.dpt)}"
        )
    elif isinstance(record, (CommitRecord, EndRecord)):
        detail = ""
    else:
        detail = ""
    clr = (
        f" [CLR->{record.undo_next}]"
        if record.undo_next is not None
        and not isinstance(record, DummyClr)
        else ""
    )
    return f"{base} {detail}{clr}".rstrip()


def dump_log(
    log: LogManager, *, start_lsn: int = 1, limit: int | None = None
) -> str:
    """Render the log tail as one line per record."""
    header = (
        f"log: end_lsn={log.end_lsn} flushed={log.flushed_lsn} "
        f"master={log.master_lsn}"
    )
    if log.master_lsn != NULL_LSN:
        # what the next restart will start from
        checkpoint = log.get(log.master_lsn)
        header += (
            f" (begin={checkpoint.begin_lsn} dpt={len(checkpoint.dpt)})"
        )
    lines = [header]
    count = 0
    for record in log.records_from(start_lsn):
        lines.append(describe_record(record))
        count += 1
        if limit is not None and count >= limit:
            lines.append(f"... (truncated at {limit} records)")
            break
    return "\n".join(lines)


def dump_stats(db: "Database") -> str:
    """Render ``db.metrics.snapshot()`` as aligned ASCII tables.

    Scalar instruments (counters and gauges) land in one table, latency
    histograms in another (values converted to microseconds).  Metric
    names are the dotted contract names from README.md "Observability".
    """
    from repro.harness.report import render_table

    snapshot = db.metrics.snapshot()
    scalars: list[dict] = []
    histograms: list[dict] = []

    def walk(node: dict, prefix: str) -> None:
        for key in sorted(node):
            value = node[key]
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                if "p50" in value and "count" in value:
                    histograms.append(
                        {
                            "histogram": name,
                            "count": value["count"],
                            "avg_us": value["avg"] / 1000.0,
                            "p50_us": value["p50"] / 1000.0,
                            "p95_us": value["p95"] / 1000.0,
                            "p99_us": value["p99"] / 1000.0,
                            "max_us": value["max"] / 1000.0,
                        }
                    )
                else:
                    walk(value, name)
            else:
                scalars.append({"metric": name, "value": value})

    walk(snapshot, "")
    parts = []
    if scalars:
        parts.append(render_table(scalars, title="metrics"))
    if histograms:
        parts.append(
            render_table(histograms, title="latency histograms (us)")
        )
    if not parts:
        return "metrics\n(no instruments registered)"
    return "\n\n".join(parts)


def lock_table_report(db: "Database") -> str:
    """Who holds what: one line per held lock name."""
    lines = ["lock table:"]
    seen = set()
    for txn in db.txns.active_transactions():
        for name in sorted(db.locks.locks_of(txn.xid), key=repr):
            if name in seen:
                continue
            seen.add(name)
            holders = db.locks.holders(name)
            rendered = ", ".join(
                f"x{owner}:{mode.value}" for owner, mode in holders.items()
            )
            lines.append(f"  {name!r}: {rendered}")
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)
