"""Call budgets of the observability layer, on a deterministic probe.

Wall clock on shared hardware swings ±15% between identical runs, so a
few-percent gate on it would be a coin flip.  These gates count instead:
cProfile counts every function call an identical single-thread op mix
executes under two configurations, and the difference is what the
configuration costs.  In this pure-Python system interpreter work is
function calls.  Wall-clock cost is what the ``bench/`` ladder measures.
"""

from __future__ import annotations

import cProfile
from functools import partial

import pytest

from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.harness.driver import TransactionalDriver
from repro.obs import flightrec
from repro.obs.metrics import MetricsRegistry
from repro.workload.generator import MixSpec, ScalarWorkload

PRELOAD = 200
PROBE_OPS = 500

#: the metrics registry: < 5% extra function calls
METRICS_CALL_BUDGET = 1.05
#: the always-on flight recorder: < 1.22% extra function calls
FLIGHT_CALL_BUDGET = 1.0122


def run_probe(*, null_metrics: bool = False, **db_kwargs) -> tuple[list, Database]:
    """Profile the deterministic single-thread op mix.

    Same seed, same op sequence, one thread, no I/O delay — the only
    difference between two probes is the configuration under test.
    ``null_metrics`` builds the database over a disabled registry
    (``MetricsRegistry(enabled=False)``: shared no-op instruments, no
    clock reads), the metrics budget's reference.  Returns the
    profile's per-function entries and the finished ``db``, so callers
    can also gate on its subsystem state.  The transaction loop runs
    inline rather than through the driver because cProfile observes
    only the calling thread.
    """
    with pytest.MonkeyPatch.context() as patch:
        if null_metrics:
            patch.setattr(
                "repro.database.MetricsRegistry",
                partial(MetricsRegistry, enabled=False),
            )
        db = Database(page_capacity=8, pool_capacity=40, **db_kwargs)
    tree = db.create_tree("obs", BTreeExtension())
    workload = ScalarWorkload(
        seed=17,
        mix=MixSpec(insert=0.5, search=0.5),
        key_space=50_000,
        selectivity=0.002,
    )
    driver = TransactionalDriver(db, tree, ops_per_txn=4)
    driver.preload(workload.preload(PRELOAD))
    ops = list(workload.ops(PROBE_OPS))
    profile = cProfile.Profile()
    profile.enable()
    for i in range(0, len(ops), driver.ops_per_txn):
        txn = db.begin(driver.isolation)
        for op in ops[i : i + driver.ops_per_txn]:
            driver._apply(txn, op)
        db.commit(txn)
    profile.disable()
    return profile.getstats(), db


def total_calls(stats: list) -> int:
    """Every function call the probe made."""
    return sum(entry.callcount for entry in stats)


def recorder_calls(stats: list) -> int:
    """The calls inside ``FlightRecorder.record``'s subtree: functions
    in ``obs/flightrec.py`` plus the builtins they call (the recorder
    calls no other Python code)."""
    calls = 0
    for entry in stats:
        code = entry.code
        if isinstance(code, str) or code.co_filename != flightrec.__file__:
            continue
        calls += entry.callcount
        calls += sum(
            sub.callcount for sub in entry.calls or () if isinstance(sub.code, str)
        )
    return calls


@pytest.fixture(scope="module")
def probe():
    """:func:`run_probe`, each configuration run once per module."""
    runs: dict[tuple, tuple[list, Database]] = {}

    def cached(**kwargs) -> tuple[list, Database]:
        key = tuple(sorted(kwargs.items()))
        if key not in runs:
            runs[key] = run_probe(**kwargs)
        return runs[key]

    return cached


def test_metrics_call_budget(probe):
    stats_off, db_off = probe(null_metrics=True)
    stats_on, db_on = probe()
    # the arms differ the way we think they do
    assert db_off.metrics.snapshot() == {}
    snap = db_on.metrics.snapshot()
    assert snap["buffer"]["hits"] > 0 and snap["latch"]["acquisitions"] > 0
    calls_on, calls_off = total_calls(stats_on), total_calls(stats_off)
    ratio = calls_on / calls_off
    assert ratio < METRICS_CALL_BUDGET, (
        f"metrics layer: {calls_on} calls vs {calls_off} without "
        f"({(ratio - 1) * 100:.2f}% extra)"
    )


def test_flight_recorder_call_budget(probe):
    stats, db = probe()
    recorded = recorder_calls(stats)
    assert db.flightrec.writes() > 0 and recorded > 0
    calls_on = total_calls(stats)
    calls_off = calls_on - recorded
    ratio = calls_on / calls_off
    assert ratio < FLIGHT_CALL_BUDGET, (
        f"flight recorder: {recorded} of {calls_on} calls "
        f"({(ratio - 1) * 100:.2f}% extra, budget "
        f"{(FLIGHT_CALL_BUDGET - 1) * 100:.2f}%)"
    )


def test_spans_fully_dormant_when_off(probe):
    """``op_tracing=False`` (the default) leaves no tracker, no ``op.*``
    aggregate, and — against an identical traced run — exactly one
    fewer flight-recorder write per span: a span reaches the ring only
    as its one ``op.<kind>`` event, its attribution stays on the
    thread-local span object."""
    _stats_off, db_off = probe()
    _stats_on, db_on = probe(op_tracing=True)
    assert db_off.spans is None
    assert "op" not in db_off.metrics.snapshot()
    ops = db_on.metrics.snapshot()["op"]
    finished = sum(kind["count"] for kind in ops.values())
    assert finished > 0
    assert db_on.flightrec.writes() == db_off.flightrec.writes() + finished
