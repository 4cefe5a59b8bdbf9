"""Flight recorder: rings, black-box dumps, replay determinism."""

import threading

from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.obs.export import (
    NONDETERMINISTIC_FIELDS,
    canonical_events,
    load_jsonl,
)
from repro.obs.flightrec import FlightRecorder


class TestRecording:
    def test_events_carry_sequence_and_data(self):
        fr = FlightRecorder()
        fr.record("txn.begin", xid=7)
        fr.record("txn.commit", xid=7)
        first, second = fr.events()
        assert (first.name, first.data) == ("txn.begin", {"xid": 7})
        assert second.name == "txn.commit"
        assert first.seq < second.seq
        assert len(fr) == 2

    def test_ring_is_a_window_but_writes_are_exact(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record("e", i=i)
        assert len(fr) == 4
        assert [e.data["i"] for e in fr.events()] == [6, 7, 8, 9]
        assert fr.writes() == 10

    def test_last_n(self):
        fr = FlightRecorder()
        for i in range(5):
            fr.record("e", i=i)
        assert [e.data["i"] for e in fr.last(2)] == [3, 4]
        assert fr.last(0) == []

    def test_clear_drops_events_not_write_count(self):
        fr = FlightRecorder()
        fr.record("e")
        fr.clear()
        assert len(fr) == 0
        assert fr.writes() == 1

    def test_multithreaded_records_merge_in_seq_order(self):
        fr = FlightRecorder(capacity=1000)
        barrier = threading.Barrier(4)

        def worker(tid):
            barrier.wait()
            for i in range(100):
                fr.record("w", tid=tid, i=i)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = fr.events()
        assert len(events) == 400
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 400

    def test_one_thread_cannot_evict_anothers_events(self):
        fr = FlightRecorder(capacity=4)
        fr.record("keep")

        def flood():
            for i in range(100):
                fr.record(f"flood{i}")

        t = threading.Thread(target=flood)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        names = [e.name for e in fr.events()]
        assert "keep" in names
        assert len(names) == 5  # 1 + the flooder's last 4

    def test_per_thread_events_stay_in_order_in_snapshots(self):
        fr = FlightRecorder(capacity=2048)
        done = threading.Event()

        def writer():
            for i in range(500):
                fr.record("w", i=i)
            done.set()

        t = threading.Thread(target=writer)
        t.start()
        while not done.is_set():
            seen = [e.data["i"] for e in fr.events() if e.name == "w"]
            assert seen == sorted(seen)
        t.join(timeout=10)
        assert not t.is_alive()

    def test_snapshot_during_concurrent_append(self):
        fr = FlightRecorder(capacity=64)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                fr.record("w")

        threads = [threading.Thread(target=writer) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                for event in fr.events():
                    assert event.name == "w"
                fr.clear()
                len(fr)
        finally:
            stop.set()
            for t in threads:
                t.join()


class TestBlackBox:
    def test_dump_and_load_roundtrip(self, tmp_path):
        fr = FlightRecorder()
        fr.record("txn.begin", xid=1)
        fr.record("db.crash", flushed_lsn=12)
        path = fr.dump(str(tmp_path / "box.jsonl"))
        loaded = load_jsonl(path)
        assert [e["name"] for e in loaded] == ["txn.begin", "db.crash"]
        assert loaded[0]["data"] == {"xid": 1}
        assert all("ts_ns" in e and "thread" in e for e in loaded)

    def test_canonical_form_excludes_nondeterministic_fields(self):
        assert NONDETERMINISTIC_FIELDS == ("ts_ns", "thread")
        fr_a = FlightRecorder()
        fr_b = FlightRecorder()
        for fr in (fr_a, fr_b):
            fr.record("txn.begin", xid=1)
            fr.record("txn.commit", xid=1)
        # same logical sequence, different timestamps/threads: the
        # replay core is identical
        assert fr_a.canonical() == fr_b.canonical()
        for seq, name, data in fr_a.canonical():
            assert "ts_ns" not in data and "thread" not in data

    def test_dumped_file_replays_to_the_same_canonical_form(
        self, tmp_path
    ):
        fr = FlightRecorder()
        fr.record("lock.deadlock_victim", victim="x3")
        path = fr.dump(str(tmp_path / "box.jsonl"))
        assert canonical_events(load_jsonl(path)) == fr.canonical()


class TestDatabaseWiring:
    def test_on_by_default_and_records_txn_boundaries(self):
        db = Database(page_capacity=8)
        assert isinstance(db.flightrec, FlightRecorder)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        txn2 = db.begin()
        tree.insert(txn2, 2, "r2")
        db.rollback(txn2)
        names = [e.name for e in db.flightrec.events()]
        assert "txn.begin" in names
        assert "txn.commit" in names
        assert "txn.abort" in names

    def test_database_black_box_is_bounded(self):
        db = Database(page_capacity=8)
        assert db.flightrec.capacity == 512
        for i in range(600):
            db.flightrec.record("tick", i=i)
        assert len(db.flightrec) == 512

    def test_black_box_survives_crash_and_restart(self):
        db = Database(page_capacity=8)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.commit(txn)
        db.crash()
        db2 = db.restart({"t": BTreeExtension()})
        # the recorder is the external observer: same instance, and the
        # pre-crash events are still in the box after recovery
        assert db2.flightrec is db.flightrec
        names = [e.name for e in db2.flightrec.events()]
        assert "txn.commit" in names  # pre-crash history retained
        assert "db.crash" in names
        assert "db.restart" in names
        assert "db.recovered" in names

    def test_open_from_log_records_what_recovery_did(self):
        db = Database(page_capacity=4)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        for i in range(20):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        db2 = Database.open_from_log(
            db.log, {"t": BTreeExtension()}, page_capacity=4
        )
        report = db2.recovery_report
        assert report.redone_records > 0
        names = [e.name for e in db2.flightrec.events()]
        assert names == ["db.open_from_log", "db.recovered"]
        recovered = db2.flightrec.events()[-1]
        assert recovered.data["redone"] == report.redone_records
        assert recovered.data["pages_written"] == report.pages_written

    def test_splits_recorded(self):
        db = Database(page_capacity=4)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        for i in range(30):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        names = {e.name for e in db.flightrec.events()}
        assert "gist.root_split" in names
        assert "gist.split" in names
