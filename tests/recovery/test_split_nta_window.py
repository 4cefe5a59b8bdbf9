"""A split's pages stay latched until its atomic action has ended.

The split releases the parent and the side it does not continue with
only after ``end_nta`` appended the ``DummyClr``.  Released earlier, a
second transaction could commit a row into the released sibling while
the action was still open; a crash that lost the ``DummyClr`` then made
restart undo the split page-oriented and the committed row was gone.
"""

import threading

import pytest

from repro import BTreeExtension, Database, Interval, check_tree
from repro.errors import CrashError
from repro.wal.records import CommitRecord

WINDOW = 1.0  # seconds the open action waits for the racer


@pytest.mark.parametrize(
    "preload",
    [[40, 41, 50, 60], [0, 10, 40, 41, 50, 60]],
    ids=["root-split", "leaf-split"],
)
def test_row_committed_beside_an_open_split_survives_a_crash(preload):
    db = Database(page_capacity=4, lock_timeout=10.0)
    tree = db.create_tree("t", BTreeExtension())
    txn = db.begin()
    for key in preload:
        tree.insert(txn, key, f"r{key}")
    db.commit(txn)

    racer_committed = threading.Event()
    racer_xid = []
    racer_errors = []
    crash_image = []

    def racer():
        try:
            other = db.begin()
            racer_xid.append(other.xid)
            tree.insert(other, 55, "r55")  # lands right of the split
            db.commit(other)
            racer_committed.set()
        except Exception as exc:  # reported below
            racer_errors.append(exc)

    real_end_nta = db.log.end_nta
    thread = threading.Thread(target=racer, daemon=True)

    def end_nta_then_crash(xid, saved_lsn):
        # the split's records are appended, its DummyClr is not: let
        # the racer run, then crash with what is durable at this point
        db.log.end_nta = real_end_nta
        thread.start()
        racer_committed.wait(WINDOW)
        crash_image.append(db.log.clone_prefix(db.log.flushed_lsn))
        raise CrashError("before the split's DummyClr")

    db.hooks.on(
        "insert:before-split",
        lambda **_: setattr(db.log, "end_nta", end_nta_then_crash),
    )
    loser = db.begin()
    with pytest.raises(CrashError):
        tree.insert(loser, 42, "r42")  # fills the leaf of 40 and splits
    db.hooks.clear()
    thread.join(10.0)
    assert not thread.is_alive()
    assert not racer_errors

    (durable,) = crash_image
    racer_durable = any(
        isinstance(r, CommitRecord) and r.xid in racer_xid
        for r in durable.records_from(1)
    )
    db2 = Database.open_from_log(
        durable, {"t": BTreeExtension()}, page_capacity=4
    )
    tree2 = db2.tree("t")
    report = check_tree(tree2)
    assert report.ok, report.errors
    txn = db2.begin()
    found = sorted(k for k, _ in tree2.search(txn, Interval(-1, 100)))
    db2.commit(txn)
    assert found == sorted(preload + ([55] if racer_durable else []))
    # the racer could not reach the split's pages inside the window
    assert not racer_durable
