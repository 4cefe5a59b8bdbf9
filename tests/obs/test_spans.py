"""Op-scoped span trees: lifecycle, attribution, database wiring."""

import threading

from repro.database import Database
from repro.ext.btree import BTreeExtension, Interval
from repro.obs.export import load_jsonl
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import ATTRIBUTION_FIELDS, SpanTracker, spans_from_events


def make_tracker(capacity: int = 512) -> SpanTracker:
    """A tracker over a private registry and a private recorder."""
    return SpanTracker(MetricsRegistry(), FlightRecorder(capacity))


def completed(db: Database) -> list[dict]:
    """The database's completed spans, read back off its flight recorder."""
    return spans_from_events(e.as_dict() for e in db.flightrec.events())


class TestSpanLifecycle:
    def test_begin_finish_produces_a_timed_span(self):
        tracker = make_tracker()
        span = tracker.begin("insert", tree="t")
        assert span is not None
        assert tracker.active() is span
        tracker.finish(span)
        assert tracker.active() is None
        assert span.total_ns > 0
        assert span.cpu_ns <= span.total_ns

    def test_nested_begin_folds_into_outermost(self):
        tracker = make_tracker()
        outer = tracker.begin("delete")
        inner = tracker.begin("search")
        assert inner is None
        # attribution during the nested phase lands on the outer span
        tracker.add_io(100)
        assert outer.io_ns == 100
        tracker.finish(inner)  # no-op
        assert tracker.active() is outer
        tracker.finish(outer)
        assert tracker.active() is None

    def test_started_counts_every_span_ever_begun(self):
        tracker = make_tracker(capacity=2)
        for _ in range(5):
            tracker.finish(tracker.begin("search"))
        # one ring write per finished span, counted exactly ...
        assert tracker.flightrec.writes() == 5
        # ... while the ring retains only the newest `capacity` spans
        events = tracker.flightrec.events()
        assert [e.name for e in events] == ["op.search", "op.search"]
        assert [e.data["op_id"] for e in events] == [4, 5]

    def test_spans_are_thread_local(self):
        tracker = make_tracker()
        main_span = tracker.begin("insert")
        seen = {}

        def other():
            seen["active"] = tracker.active()
            span = tracker.begin("search")
            seen["own"] = span
            tracker.add_lock_wait(7)
            tracker.finish(span)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert seen["active"] is None
        assert seen["own"] is not None
        assert seen["own"].lock_wait_ns == 7
        assert main_span.lock_wait_ns == 0
        tracker.finish(main_span)


class TestAttribution:
    def test_hooks_are_noops_without_an_active_span(self):
        tracker = make_tracker()
        tracker.add_lock_wait(1)
        tracker.add_io(1)
        tracker.add_wal(1)
        tracker.note_wal_append()
        tracker.note_fix()
        assert tracker.flightrec.writes() == 0

    def test_hooks_accumulate_on_the_active_span(self):
        tracker = make_tracker()
        span = tracker.begin("insert")
        tracker.add_lock_wait(20)
        tracker.add_io(30)
        tracker.add_wal(40)
        tracker.note_wal_append()
        tracker.note_wal_append()
        tracker.note_fix()
        tracker.finish(span)
        assert span.lock_wait_ns == 20
        assert span.io_ns == 30
        assert span.wal_ns == 40
        assert span.wal_appends == 2
        assert span.buffer_fixes == 1

    def test_cpu_is_the_unattributed_residue(self):
        tracker = make_tracker()
        span = tracker.begin("search")
        tracker.finish(span)
        waits = sum(getattr(span, f) for f in ATTRIBUTION_FIELDS)
        assert span.cpu_ns == span.total_ns - waits
        # cpu never goes negative even if attribution overshoots
        span.io_ns = span.total_ns * 2
        assert span.cpu_ns == 0

    def test_finish_feeds_per_kind_aggregates(self):
        tracker = make_tracker()
        for _ in range(3):
            span = tracker.begin("insert")
            tracker.add_io(100)
            tracker.finish(span)
        snap = tracker.metrics.snapshot()
        assert snap["op"]["insert"]["count"] == 3
        assert snap["op"]["insert"]["io_ns"] == 300
        assert snap["op"]["insert"]["total_ns"]["count"] == 3

    def test_as_dict_and_export_roundtrip(self, tmp_path):
        tracker = make_tracker()
        fr = tracker.flightrec
        fr.record("before")
        span = tracker.begin("delete", tree="t")
        fr.record("gist.split", pid=9)
        tracker.finish(span)
        fr.record("after")
        d = span.as_dict()
        assert d["kind"] == "delete"
        assert d["tree"] == "t"
        assert d["start_ns"] == span.start_ns
        # the finished span is one op.<kind> event carrying as_dict()
        assert fr.events()[-2].name == "op.delete"
        assert fr.events()[-2].data == d
        path = fr.dump(str(tmp_path / "box.jsonl"))
        (loaded,) = spans_from_events(load_jsonl(path))
        assert loaded["op_id"] == span.op_id
        assert loaded["total_ns"] == span.total_ns
        # only the event inside the span's window is its point event
        assert loaded["events"] == [{"name": "gist.split", "pid": 9}]

    def test_point_events_stay_with_their_thread(self):
        tracker = make_tracker()
        span = tracker.begin("insert")
        other = threading.Thread(
            target=tracker.flightrec.record, args=("gist.split",)
        )
        other.start()
        other.join()
        tracker.finish(span)
        events = [e.as_dict() for e in tracker.flightrec.events()]
        (found,) = spans_from_events(events)
        assert found["events"] == []


class TestDatabaseWiring:
    def test_tracing_off_by_default(self):
        db = Database(page_capacity=8)
        assert db.spans is None
        db.create_tree("t", BTreeExtension())
        txn = db.begin()
        db.tree("t").insert(txn, 1, "r1")
        db.commit(txn)
        assert "op" not in db.metrics.snapshot()

    def test_traced_operations_attribute_their_work(self):
        db = Database(page_capacity=8, op_tracing=True)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, i, f"r{i}")
        tree.search(txn, Interval(0, 50))
        db.commit(txn)
        spans = completed(db)
        assert {"insert", "search", "commit"} <= {s["kind"] for s in spans}
        inserts = [s for s in spans if s["kind"] == "insert"]
        assert all(s["buffer_fixes"] > 0 for s in inserts)
        assert all(s["wal_appends"] > 0 for s in inserts)
        commits = [s for s in spans if s["kind"] == "commit"]
        # commit forces the log: the flush wait is attributed to WAL
        assert any(s["wal_ns"] > 0 for s in commits)
        snap = db.metrics.snapshot()
        assert snap["op"]["insert"]["count"] == 40
        assert snap["op"]["insert"]["buffer_fixes"] > 0

    def test_split_lands_as_a_span_event(self):
        db = Database(page_capacity=4, op_tracing=True)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        for i in range(30):
            tree.insert(txn, i, f"r{i}")
        db.commit(txn)
        events = [
            event["name"]
            for span in completed(db)
            if span["kind"] == "insert"
            for event in span["events"]
        ]
        assert "gist.root_split" in events
        assert "gist.split" in events

    def test_abort_span_kind(self):
        db = Database(page_capacity=8, op_tracing=True)
        tree = db.create_tree("t", BTreeExtension())
        txn = db.begin()
        tree.insert(txn, 1, "r1")
        db.rollback(txn)
        kinds = [s["kind"] for s in completed(db)]
        assert "abort" in kinds
