"""Restart equivalence: filtered redo against the full replay.

Restart reads only the pages its dirty page table names and applies only
records at or above their recLSNs.  The oracle is the replay that skips
nothing: :func:`rebuild_page_from_log` over a page's whole WAL history.
For random streams of inserts, batch inserts, deletes, commits and
rollbacks in two interleaved transactions, with ``flush_page`` /
``flush_all`` / ``checkpoint`` at random points and a crash at the end,
every page on disk after recovery must equal that replay, the tree must
pass ``check_tree`` and hold exactly the committed pairs — both for
``restart`` (surviving store, checkpoint's tables) and for
``open_from_log`` (empty store, no checkpoint: every page in the DPT
from its first mention), and the two must leave the same pages behind.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.gist.checker import check_tree
from repro.storage.page import page_fingerprint
from repro.wal.recovery import rebuild_page_from_log

CAPACITY = 4
keys = st.integers(min_value=0, max_value=60)
slot = st.integers(0, 1)
index = st.integers(0, 10_000)
#: keys close enough to share a leaf: one run, several records, one page
run_keys = st.tuples(
    keys, st.lists(st.integers(0, 2), min_size=1, max_size=5)
).map(lambda base_gaps: [base_gaps[0] + gap for gap in (0, *base_gaps[1])])

writes = st.one_of(
    st.tuples(st.just("insert"), slot, keys),
    st.tuples(st.just("multi_put"), slot, run_keys),
    st.tuples(st.just("delete"), slot, index),
    st.tuples(st.just("commit"), slot),
    st.tuples(st.just("rollback"), slot),
)
controls = st.one_of(
    st.tuples(st.just("flush_page"), index),
    st.tuples(st.just("flush_all")),
    st.tuples(st.just("checkpoint")),
)
steps = st.lists(st.one_of(writes, controls), min_size=4, max_size=40)
#: what happens between the last flush or checkpoint and the crash — the
#: part of history redo is there for
last_writes = st.lists(writes, max_size=8)


class Stream:
    """Drives the database and keeps the model of what is committed."""

    def __init__(self) -> None:
        self.db = Database(page_capacity=CAPACITY)
        self.tree = self.db.create_tree("t", BTreeExtension())
        # start clean, so that the first record to touch a page is also
        # the one whose LSN becomes its recLSN
        self.db.pool.flush_all()
        self.committed: dict[str, int] = {}
        #: per slot: the open transaction and its pending (adds, deletes)
        self.open: list[tuple | None] = [None, None]
        self.serial = 0

    def txn(self, which: int) -> tuple:
        if self.open[which] is None:
            self.open[which] = (self.db.begin(), {}, set())
        return self.open[which]

    def insert(self, which: int, batch: list[int], multi: bool) -> None:
        txn, adds, _ = self.txn(which)
        pairs = []
        for key in batch:
            self.serial += 1
            pairs.append((key, f"r{self.serial}"))
        if multi:
            self.tree.multi_put(txn, pairs)
        else:
            self.tree.insert(txn, *pairs[0])
        adds.update((rid, key) for key, rid in pairs)

    def delete(self, which: int, pick: int) -> None:
        # only committed pairs no open transaction has claimed: the two
        # transactions share one thread and must never wait on a lock
        claimed = set().union(*(o[2] for o in self.open if o is not None))
        free = sorted(set(self.committed) - claimed)
        if not free:
            return
        rid = free[pick % len(free)]
        txn, _, deletes = self.txn(which)
        self.tree.delete(txn, self.committed[rid], rid)
        deletes.add(rid)

    def finish(self, which: int, commit: bool) -> None:
        if self.open[which] is None:
            return
        txn, adds, deletes = self.open[which]
        self.open[which] = None
        if commit:
            self.db.commit(txn)
            self.committed.update(adds)
            for rid in deletes:
                del self.committed[rid]
        else:
            self.db.rollback(txn)

    def run(self, step: tuple) -> None:
        kind, args = step[0], step[1:]
        if kind == "insert":
            self.insert(args[0], [args[1]], multi=False)
        elif kind == "multi_put":
            self.insert(args[0], args[1], multi=True)
        elif kind == "delete":
            self.delete(*args)
        elif kind in ("commit", "rollback"):
            self.finish(args[0], commit=kind == "commit")
        elif kind == "flush_page":
            dirty = sorted(self.db.pool.dirty_page_table())
            if dirty:
                self.db.pool.flush_page(dirty[args[0] % len(dirty)])
        elif kind == "flush_all":
            self.db.pool.flush_all()
        else:
            self.db.checkpoint()


def check_recovered(db: Database, committed: dict[str, int]) -> dict:
    """The three oracles; returns the allocated pages' fingerprints."""
    disk = db.store.disk_image()
    prints = {}
    for pid in db.store.allocated_pids():
        replayed = rebuild_page_from_log(db.log, db.store, pid)
        if replayed is None:
            # allocated by a Get-Page whose split the crash cut off
            assert pid not in disk
            continue
        prints[pid] = page_fingerprint(disk[pid])
        assert prints[pid] == page_fingerprint(replayed), f"page {pid}"
    tree = db.tree("t")
    report = check_tree(tree)
    assert report.ok, report.errors
    txn = db.begin()
    found = {rid: key for key, rid in tree.search(txn, Interval(-1, 10**6))}
    db.commit(txn)
    assert found == committed
    return prints


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps, controls, last_writes, st.booleans())
def test_restart_equals_full_replay(
    sequence, last_control, tail, flush_log_at_crash
):
    stream = Stream()
    for step in [*sequence, last_control, *tail]:
        stream.run(step)
    db = stream.db
    if flush_log_at_crash:
        db.log.flush()  # whatever is open becomes a loser with work to undo
    db.crash()
    surviving_log = db.log.clone_prefix(db.log.end_lsn)

    restarted = db.restart({"t": BTreeExtension()})
    report = restarted.recovery_report
    assert report.pages_read <= len(db.store.disk_image())
    filtered = check_recovered(restarted, stream.committed)

    reopened = Database.open_from_log(
        surviving_log, {"t": BTreeExtension()}, page_capacity=CAPACITY
    )
    assert reopened.recovery_report.checkpoint_begin_lsn == 0
    assert reopened.recovery_report.redo_skipped == 0
    assert check_recovered(reopened, stream.committed) == filtered
