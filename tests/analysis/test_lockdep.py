"""Runtime lockdep tests: cycle detection, WAL rule, latch/lock rules,
leak reporting and the ``Database(protocol_checks=...)`` wiring."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.lockdep import LockdepWitness, drain_new_violations
from repro.database import Database
from repro.errors import LockTimeoutError
from repro.ext.btree import BTreeExtension
from repro.lock.manager import LockManager
from repro.lock.modes import LockMode
from repro.obs.flightrec import FlightRecorder
from repro.storage.disk import PageStore
from repro.storage.page import PageKind
from repro.sync.hooks import Hooks, make_barrier_hook
from repro.sync.latch import LatchMode, SXLatch
from tests.analysis.fixtures import abba_order, leaked_latch, unbalanced_pin


@pytest.fixture(autouse=True)
def _drain_seeded_violations():
    """These tests deliberately seed hard violations; drain them so the
    suite-wide ``REPRO_PROTOCOL_CHECKS`` enforcement fixture (which
    tears down *after* this one) does not fail the test for them."""
    yield
    drain_new_violations()


# ----------------------------------------------------------------------
# cycle detection


def test_three_thread_abba_cycle_reported_without_deadlocking():
    witness = LockdepWitness(FlightRecorder())
    latches = {
        name: SXLatch(name=name, witness=witness) for name in "ABC"
    }
    hooks = Hooks()
    barrier_hook, _ = make_barrier_hook(3)
    hooks.on("test:first-latch-held", barrier_hook)

    def run(first: str, second: str) -> None:
        abba_order.acquire_pair(
            latches[first],
            latches[second],
            LatchMode.S,
            between=lambda: hooks.fire("test:first-latch-held"),
        )

    # A->B, B->C, C->A: a three-party ABBA.  All acquisitions are S-mode
    # (self-compatible), so no interleaving can actually deadlock — the
    # witness must still prove the cycle possible.
    threads = [
        threading.Thread(target=run, args=pair)
        for pair in (("A", "B"), ("B", "C"), ("C", "A"))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)

    cycles = witness.cycles
    assert cycles, "lock-order cycle not detected"
    members = set().union(*(set(cycle) for cycle in cycles))
    assert {("latch", "A"), ("latch", "B"), ("latch", "C")} <= members
    assert any(v.rule == "lock-order-cycle" for v in witness.warnings)
    # a *potential* cycle is a warning for human triage, not a hard stop
    assert witness.violations == []


def test_consistent_order_produces_no_cycle():
    witness = LockdepWitness(FlightRecorder())
    a = SXLatch(name="A", witness=witness)
    b = SXLatch(name="B", witness=witness)
    for _ in range(3):
        abba_order.acquire_pair(a, b, LatchMode.S)
    assert witness.cycles == []
    assert witness.report().edges == 1  # A->B recorded once


def test_out_of_order_release_is_legal_crabbing():
    witness = LockdepWitness(FlightRecorder())
    witness.note_acquired("latch", "parent")
    witness.note_acquired("latch", "child")
    # hand-over-hand: parent released first, child still held
    witness.note_released("latch", "parent")
    witness.note_released("latch", "child")
    report = witness.report()
    assert report.leaked_latches == {}
    assert report.violations == [] and report.warnings == []


# ----------------------------------------------------------------------
# WAL rule


def test_wal_rule_violation_on_underflushed_write():
    store = PageStore(page_capacity=4)
    witness = LockdepWitness(FlightRecorder(), flushed_lsn=lambda: 5)
    store.witness = witness
    page = store.new_page(PageKind.LEAF)
    page.page_lsn = 9
    store.write(page)
    wal = [v for v in witness.violations if v.rule == "wal-rule"]
    assert len(wal) == 1
    assert "page_lsn=9" in wal[0].detail


def test_wal_rule_silent_when_log_covers_page():
    store = PageStore(page_capacity=4)
    witness = LockdepWitness(FlightRecorder(), flushed_lsn=lambda: 100)
    store.witness = witness
    page = store.new_page(PageKind.LEAF)
    page.page_lsn = 9
    store.write(page)
    assert witness.violations == []
    assert witness.report().io_events == 1


# ----------------------------------------------------------------------
# latch held across lock wait / across I/O


def test_latch_held_across_lock_wait_is_hard_violation():
    witness = LockdepWitness(FlightRecorder())
    locks = LockManager(default_timeout=0.05)
    locks.witness = witness
    locks.acquire("t1", "k", LockMode.X)
    latch = SXLatch(name="L", witness=witness)
    latch.acquire(LatchMode.S)
    try:
        with pytest.raises(LockTimeoutError):
            locks.acquire("t2", "k", LockMode.X, timeout=0.05)
    finally:
        latch.release()
    found = [v for v in witness.violations if v.rule == "latch-lock-wait"]
    assert len(found) == 1
    assert ("latch", "L") in found[0].held


def test_unlatched_lock_wait_is_not_a_violation():
    witness = LockdepWitness(FlightRecorder())
    locks = LockManager(default_timeout=0.05)
    locks.witness = witness
    locks.acquire("t1", "k", LockMode.X)
    with pytest.raises(LockTimeoutError):
        locks.acquire("t2", "k", LockMode.X, timeout=0.05)
    assert witness.violations == []


def test_io_under_latch_is_warning_not_violation():
    store = PageStore(page_capacity=4)
    witness = LockdepWitness(FlightRecorder())
    store.witness = witness
    page = store.new_page(PageKind.LEAF)
    store.write(page)
    latch = SXLatch(name="io-latch", witness=witness)
    latch.acquire(LatchMode.S)
    try:
        store.read(page.pid)
    finally:
        latch.release()
    assert any(v.rule == "latch-io" for v in witness.warnings)
    assert witness.violations == []


# ----------------------------------------------------------------------
# leak reporting


def test_leaked_latch_reported_until_released():
    witness = LockdepWitness(FlightRecorder())
    latch = SXLatch(name="leaky", witness=witness)
    leaked_latch.leak(latch, LatchMode.S, lambda: None)
    me = threading.get_ident()
    assert witness.report().leaked_latches == {me: [("latch", "leaky")]}
    latch.release()
    assert witness.report().leaked_latches == {}


def test_leaked_pin_reported_until_unpinned():
    db = Database(protocol_checks=True, page_capacity=4)
    tree = db.create_tree("bt", BTreeExtension())
    unbalanced_pin.grab(db.pool, tree.root_pid)
    me = threading.get_ident()
    assert db.witness.report().leaked_pins == {me: [tree.root_pid]}
    db.pool.unpin(tree.root_pid)
    assert db.witness.report().leaked_pins == {}


# ----------------------------------------------------------------------
# Database wiring


def test_database_protocol_checks_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_PROTOCOL_CHECKS", raising=False)
    db = Database(page_capacity=4)
    assert db.witness is None
    assert db.protocol_report() is None
    assert db.store.witness is None
    assert db.locks.witness is None


def test_database_protocol_checks_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_PROTOCOL_CHECKS", "1")
    assert Database(page_capacity=4).witness is not None
    monkeypatch.setenv("REPRO_PROTOCOL_CHECKS", "off")
    assert Database(page_capacity=4).witness is None
    monkeypatch.setenv("REPRO_PROTOCOL_CHECKS", "1")
    # an explicit argument beats the environment
    assert Database(page_capacity=4, protocol_checks=False).witness is None


def test_database_wires_witness_everywhere():
    db = Database(protocol_checks=True, page_capacity=4)
    assert db.witness is not None
    assert db.store.witness is db.witness
    assert db.locks.witness is db.witness
    report = db.protocol_report()
    assert report is not None and report.ok


def test_checked_workload_records_no_hard_violations():
    db = Database(protocol_checks=True, page_capacity=4)
    tree = db.create_tree("bt", BTreeExtension())
    txn = db.begin()
    for i in range(60):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    txn = db.begin()
    assert tree.search(txn, 17)
    for i in range(0, 60, 7):
        tree.delete(txn, i, f"r{i}")
    db.commit(txn)
    report = db.protocol_report()
    assert report.ok, [str(v) for v in report.violations]
    assert report.acquisitions > 0  # the witness actually saw traffic
    assert report.leaked_latches == {}
    assert report.leaked_pins == {}


def test_restart_inherits_protocol_checks():
    db = Database(protocol_checks=True, page_capacity=4)
    tree = db.create_tree("bt", BTreeExtension())
    txn = db.begin()
    tree.insert(txn, 1, "r1")
    db.commit(txn)
    db.crash()
    db2 = db.restart({"bt": BTreeExtension()})
    assert db2.witness is not None
    assert db2.witness is not db.witness
    assert db2.store.witness is db2.witness
    assert db2.protocol_report().ok

    # an explicit override at restart clears the store's stale binding
    db2.crash()
    db3 = db2.restart({"bt": BTreeExtension()}, protocol_checks=False)
    assert db3.witness is None
    assert db3.store.witness is None


def test_drain_new_reports_each_violation_once():
    witness = LockdepWitness(FlightRecorder())
    witness.note_acquired("latch", "A")
    witness.note_lock_wait("some-lock")
    witness.note_released("latch", "A")
    fresh = witness.drain_new()
    assert [v.rule for v in fresh] == ["latch-lock-wait"]
    assert witness.drain_new() == []
    # the global drain sees nothing either: already consumed
    assert all(
        "some-lock" not in v.detail for v in drain_new_violations()
    )
