"""Constructor knobs must survive ``Database.restart``."""

import inspect

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval


def _crash_restart(db, **config):
    tree = db.tree("t")
    txn = db.begin()
    tree.insert(txn, 1, "r1")
    db.commit(txn)
    db.crash()
    return db.restart({"t": BTreeExtension()}, **config)


class TestRestartPropagation:
    def test_op_tracing_and_capacity_carry_over(self):
        db = Database(page_capacity=8, op_tracing=True)
        db.create_tree("t", BTreeExtension())
        db2 = _crash_restart(db)
        assert db2.op_tracing is True
        assert db2.spans is not None
        assert db2.store.page_capacity == 8
        # and the revived tracker is live: recovery's ops aside, a new
        # operation gets a span
        tree = db2.tree("t")
        txn = db2.begin()
        tree.insert(txn, 2, "r2")
        db2.commit(txn)
        assert any(s.kind == "insert" for s in db2.spans.completed())

    def test_tracing_off_stays_off(self):
        db = Database(page_capacity=8)
        db.create_tree("t", BTreeExtension())
        db2 = _crash_restart(db)
        assert db2.spans is None

    def test_explicit_restart_override_wins(self):
        db = Database(page_capacity=8)
        db.create_tree("t", BTreeExtension())
        db2 = _crash_restart(db, op_tracing=True)
        assert db2.spans is not None
        db3 = _crash_restart(db2, op_tracing=False)
        assert db3.spans is None

    def test_flight_recorder_knobs_carry_over(self):
        db = Database(page_capacity=8)
        db.create_tree("t", BTreeExtension())
        db2 = _crash_restart(db)
        assert db2.flight_recorder_enabled is True
        # same instance: the black box is the external observer
        assert db2.flightrec is db.flightrec

    def test_disabled_flight_recorder_stays_disabled(self):
        db = Database(page_capacity=8, flight_recorder=False)
        db.create_tree("t", BTreeExtension())
        db2 = _crash_restart(db)
        assert db2.flightrec is None

    def test_wal_tracker_is_rebound_not_stale(self):
        # restart with tracing toggled off must not leave the new log
        # manager pointing at the old tracker
        db = Database(page_capacity=8, op_tracing=True)
        db.create_tree("t", BTreeExtension())
        db2 = _crash_restart(db, op_tracing=False)
        assert db2.log.tracker is None
        db3 = _crash_restart(db2, op_tracing=True)
        assert db3.log.tracker is db3.spans


#: constructor keywords ``restart`` need not forward: objects the new
#: instance rebuilds, and settings that live in the surviving store /
#: log (the store, log and black box themselves are handed over, not
#: passed — see ``test_flight_recorder_knobs_carry_over``)
_NOT_FORWARDED = {
    "hooks",
    "fault_plan",
    "io_delay",
    "flush_delay",
    "page_capacity",
}

#: a non-default value for every other keyword
_NON_DEFAULT = {
    "pool_capacity": 40,
    "lock_timeout": 1.5,
    "metrics_enabled": False,
    "protocol_checks": True,
    "op_tracing": True,
    "flight_recorder": False,
}


def test_every_knob_survives_restart(monkeypatch):
    """Walks the constructor signature, so a knob added without
    ``restart`` forwarding (or without a value here) fails."""
    knobs = set(inspect.signature(Database.__init__).parameters)
    assert len(knobs - {"self"}) == 11
    assert knobs - {"self"} - _NOT_FORWARDED == set(_NON_DEFAULT)
    db = Database(page_capacity=8, **_NON_DEFAULT)
    db.create_tree("t", BTreeExtension())
    forwarded = {}

    class Spy(Database):
        def __init__(self, **config):
            forwarded.update(config)
            super().__init__(**config)

    monkeypatch.setattr("repro.database.Database", Spy)
    db2 = _crash_restart(db)
    assert {k: forwarded[k] for k in _NON_DEFAULT} == _NON_DEFAULT
    assert db2.pool.capacity == 40
    assert db2.locks.default_timeout == 1.5
    # an explicit argument still wins, and is what carries on
    db3 = _crash_restart(db2, pool_capacity=64)
    assert db3.pool.capacity == 64
    assert _crash_restart(db3).pool.capacity == 64


class TestPartitionKnobs:
    """Cluster topology and database knobs across a cluster re-open."""

    def _cluster(self, **kwargs):
        from repro.cluster import PartitionedDatabase

        cluster = PartitionedDatabase(**kwargs)
        cluster.create_tree("t", BTreeExtension())
        cluster.multi_put("t", [(i, f"r{i}") for i in range(30)])
        return cluster

    def test_partitions_and_router_survive_restart(self):
        cluster = self._cluster(
            partitions=3, router="hash", page_capacity=16
        )
        reopened = cluster.restart()
        try:
            assert reopened.partitions == 3
            assert reopened.router.kind == "hash"
            assert reopened.router.partitions == 3
            rows = reopened.search("t", Interval(0, 30))
            assert [k for k, _ in rows] == list(range(30))
        finally:
            reopened.shutdown()

    def test_db_knobs_propagate_to_every_worker(self):
        cluster = self._cluster(
            partitions=2, page_capacity=16, op_tracing=True
        )
        reopened = cluster.restart()
        try:
            for info in reopened.describe().values():
                assert info["page_capacity"] == 16
                assert info["op_tracing"] is True
        finally:
            reopened.shutdown()

    def test_explicit_reopen_override_wins(self):
        cluster = self._cluster(partitions=2, page_capacity=16)
        reopened = cluster.restart(op_tracing=True)
        try:
            for info in reopened.describe().values():
                assert info["page_capacity"] == 16  # propagated
                assert info["op_tracing"] is True  # overridden
            # and the override itself now propagates onward
            again = reopened.restart()
            try:
                for info in again.describe().values():
                    assert info["op_tracing"] is True
            finally:
                again.shutdown()
        finally:
            if not reopened._closed:
                reopened.shutdown()
