"""Span recording, self-time arithmetic and the per-op accounting identity."""

import threading
from dataclasses import replace

from repro import BTreeExtension

from engine import run_round
from spans import (
    CALLS,
    END,
    NAME,
    PARENT,
    START,
    Recorder,
    op_coverage,
    self_times,
    timed_extension,
    totals,
)
from workloads import SPECS, generate_round


def _span(name, start, end, parent, calls=0):
    return [name, start, end, parent, 0, calls]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span("op", 0, 100, -1),
        _span("txn.begin", 0, 10, 0),
        _span("gist.search", 10, 80, 0),
        _span("ext.consistent", 10, 40, 2, calls=12),  # aggregate: 30 busy
        _span("txn.commit", 80, 98, 0),
    ]
    own = self_times(spans)
    assert own == [100 - 10 - 70 - 18, 10, 70 - 30, 30, 18]
    # grandchildren are charged to their parent only
    assert sum(own) == 100
    tot = totals([spans])
    assert tot["gist.search"] == {
        "spans": 1, "calls": 1, "dur_ns": 70, "self_ns": 40,
    }
    assert tot["ext.consistent"]["calls"] == 12
    assert op_coverage(spans) == [0.98]


def test_self_time_never_goes_negative():
    spans = [_span("op", 0, 10, -1), _span("child", 0, 12, 0)]
    assert self_times(spans) == [0, 12]


def test_recorder_nests_spans_and_aggregates_extension_calls():
    rec = Recorder()
    rec.set_op(7)
    rec.ext("consistent", 5)  # outside any span: dropped
    rec.open("op")
    rec.open("gist.search")
    rec.ext("consistent", 5)
    rec.ext("consistent", 7)
    rec.ext("penalty", 3)
    rec.close()
    rec.call("txn.commit", lambda: None)
    rec.close()
    (spans,) = rec.threads()
    names = [s[NAME] for s in spans]
    assert names == [
        "op", "gist.search", "ext.consistent", "ext.penalty", "txn.commit",
    ]
    assert [s[PARENT] for s in spans] == [-1, 0, 1, 1, 0]
    assert all(s[4] == 7 for s in spans)
    agg = spans[2]
    assert agg[CALLS] == 2 and agg[END] - agg[START] == 12
    assert all(s[END] >= s[START] for s in spans)


def test_window_rebases_parents_and_threads_do_not_mix():
    rec = Recorder()
    rec.call("before", lambda: None)
    mark = rec.lengths()
    rec.open("op")
    rec.call("inner", lambda: None)
    rec.close()

    def other():
        rec.call("elsewhere", lambda: None)

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    first, second = rec.window(mark)
    assert [s[NAME] for s in first] == ["op", "inner"]
    assert [s[PARENT] for s in first] == [-1, 0]
    assert [s[NAME] for s in second] == ["elsewhere"]


def test_timed_extension_behaves_like_its_base_and_counts_calls():
    rec = Recorder()
    ext = timed_extension(BTreeExtension, rec)
    plain = BTreeExtension()
    assert isinstance(ext, BTreeExtension)
    rec.open("op")
    assert ext.consistent(5, 5) is plain.consistent(5, 5) is True
    assert ext.penalty(plain.union([1, 9]), 12) == 3.0
    rec.close()
    (spans,) = rec.threads()
    calls = {s[NAME]: s[CALLS] for s in spans if s[CALLS]}
    assert calls == {"ext.consistent": 1, "ext.penalty": 1}


def test_begin_op_commit_cover_each_traced_op(tmp_path):
    """The accounting identity: the three spans the benchmark wraps
    around an op (begin, the tree call, commit) account for ≥ 95% of
    the op's wall time, so layer shares computed from them add up."""
    spec = replace(SPECS["embedded_btree"], preload=400, count_block=20)
    inputs = generate_round(spec, 5, 0, 400, True)
    import time

    result = run_round(spec, ".", inputs, time.perf_counter(), traced=True)
    assert result.failed == 0
    since, until, _ = result.segments[-1]
    (spans,) = result.rec.window(since, until)
    coverage = op_coverage(spans)
    assert len(coverage) >= 400
    total_op = sum(s[END] - s[START] for s in spans if s[NAME] == "op")
    total_children = sum(
        s[END] - s[START]
        for s in spans
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "op"
    )
    assert total_children / total_op >= 0.95
    # and per op: allow the odd one a scheduler hiccup between spans
    assert sorted(coverage)[len(coverage) // 20] >= 0.90
    path = tmp_path / "trace.jsonl"
    assert result.rec.write_jsonl(str(path)) == len(result.rec.threads()[0])
