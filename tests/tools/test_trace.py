"""Trace pretty-printer CLI."""

from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracker
from repro.tools.trace import (
    main,
    render_file,
    render_flight_events,
    render_span_attribution,
    render_span_table,
)

SPANS = [
    {
        "op_id": 1, "kind": "insert", "tree": "t", "total_ns": 10_000,
        "cpu_ns": 6_000, "latch_wait_ns": 1_000, "lock_wait_ns": 0,
        "io_ns": 2_000, "wal_ns": 1_000, "wal_appends": 2,
        "buffer_fixes": 3,
    },
    {
        "op_id": 2, "kind": "search", "tree": "t", "total_ns": 4_000,
        "cpu_ns": 4_000, "latch_wait_ns": 0, "lock_wait_ns": 0,
        "io_ns": 0, "wal_ns": 0, "wal_appends": 0, "buffer_fixes": 2,
    },
]


class TestRendering:
    def test_span_table(self):
        out = render_span_table(SPANS)
        assert "insert" in out and "search" in out
        assert "10.000" in out  # total_us of op 1

    def test_span_table_empty(self):
        assert "no spans" in render_span_table([])

    def test_attribution_percentages(self):
        out = render_span_attribution(SPANS)
        assert "insert" in out
        # insert: io 2000/10000 = 20%
        assert "20.0" in out

    def test_flight_events(self):
        out = render_flight_events(
            [
                {"seq": 1, "ts_ns": 5, "thread": 9, "name": "txn.begin",
                 "data": {"xid": 1}},
                {"seq": 2, "ts_ns": 6, "thread": 9, "name": "db.crash"},
            ]
        )
        assert "txn.begin" in out and "db.crash" in out
        # nondeterministic fields are not rendered
        assert "thread" not in out

    def test_flight_events_limit(self):
        events = [
            {"seq": i, "name": "e", "ts_ns": 0, "thread": 0}
            for i in range(10)
        ]
        out = render_flight_events(events, limit=3)
        assert "7 older omitted" in out


class TestAutodetect:
    """One file format: a flight dump renders in both views."""

    def test_renders_span_export(self, tmp_path):
        fr = FlightRecorder()
        tracker = SpanTracker(MetricsRegistry(), fr)
        span = tracker.begin("insert", tree="t")
        fr.record("gist.split", pid=4)
        tracker.finish(span)
        path = fr.dump(str(tmp_path / "box.jsonl"))
        out = render_file(path)
        assert "op spans (1 total" in out
        assert "latency attribution" in out
        # the split shows under its span and in the black box, which
        # leaves the span's own op.insert event to the span view
        (row,) = [line for line in out.splitlines() if " insert " in line]
        assert row.rstrip().endswith("gist.split")
        assert "flight recorder (1 events)" in out

    def test_renders_flight_dump(self, tmp_path):
        fr = FlightRecorder()
        fr.record("txn.begin", xid=3)
        path = fr.dump(str(tmp_path / "box.jsonl"))
        out = render_file(path)
        assert "flight recorder (1 events)" in out
        assert "xid=3" in out

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "empty" in render_file(str(path))


class TestCli:
    def test_main_renders_paths(self, tmp_path, capsys):
        fr = FlightRecorder()
        fr.record("gist.split", pid=4)
        path = fr.dump(str(tmp_path / "box.jsonl"))
        assert main([path]) == 0
        assert "gist.split" in capsys.readouterr().out

    def test_main_requires_input(self, capsys):
        try:
            main([])
        except SystemExit as exc:
            assert exc.code != 0
        else:  # pragma: no cover - argparse always exits
            raise AssertionError("expected SystemExit")

    def test_traced_run_dump_renders_both_views(self, tmp_path, capsys):
        from repro.workload.scenario import run_scenario

        result = run_scenario(
            seed=2, ops=30, threads=2, preload=40, op_tracing=True
        )
        path = result.db.flightrec.dump(str(tmp_path / "box.jsonl"))
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "op spans" in out and "latency attribution" in out
        assert "flight recorder" in out and "txn.commit" in out
        # a preload of 40 into 16-entry pages splits under a span
        assert "gist.split" in out

    def test_demo_mode(self, capsys):
        assert main(["--demo"]) == 0
        out = capsys.readouterr().out
        assert "op spans" in out
        assert "flight recorder" in out
