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

import pytest

from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.harness.driver import TransactionalDriver
from repro.workload.generator import MixSpec, ScalarWorkload

PRELOAD = 200
PROBE_OPS = 500

#: the metrics registry: < 5% extra function calls
METRICS_CALL_BUDGET = 1.05
#: the always-on flight recorder: < 1.22% extra function calls
FLIGHT_CALL_BUDGET = 1.0122


def run_probe(**db_kwargs) -> tuple[int, Database]:
    """Profile the deterministic single-thread op mix.

    Same seed, same op sequence, one thread, no I/O delay — the only
    difference between two probes is the configuration under test.
    Returns ``(total_function_calls, db)`` so callers can also gate on
    the finished run's subsystem state.  The transaction loop runs
    inline rather than through the driver because cProfile observes
    only the calling thread.
    """
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
    return sum(entry.callcount for entry in profile.getstats()), db


@pytest.fixture(scope="module")
def probe():
    """:func:`run_probe`, each configuration run once per module."""
    runs: dict[tuple, tuple[int, Database]] = {}

    def cached(**db_kwargs) -> tuple[int, Database]:
        key = tuple(sorted(db_kwargs.items()))
        if key not in runs:
            runs[key] = run_probe(**db_kwargs)
        return runs[key]

    return cached


def test_metrics_call_budget(probe):
    calls_off, db_off = probe(metrics_enabled=False)
    calls_on, db_on = probe()
    # the arms differ the way we think they do
    assert db_off.metrics.snapshot() == {}
    snap = db_on.metrics.snapshot()
    assert snap["buffer"]["hits"] > 0 and snap["latch"]["acquisitions"] > 0
    ratio = calls_on / calls_off
    assert ratio < METRICS_CALL_BUDGET, (
        f"metrics layer: {calls_on} calls vs {calls_off} without "
        f"({(ratio - 1) * 100:.2f}% extra)"
    )


def test_flight_recorder_call_budget(probe):
    calls_off, db_off = probe(flight_recorder=False)
    calls_on, db_on = probe()
    assert db_off.flightrec is None
    assert db_on.flightrec.writes() > 0
    ratio = calls_on / calls_off
    assert ratio < FLIGHT_CALL_BUDGET, (
        f"flight recorder: {calls_on} calls vs {calls_off} without "
        f"({(ratio - 1) * 100:.2f}% extra, budget "
        f"{(FLIGHT_CALL_BUDGET - 1) * 100:.2f}%)"
    )


def test_spans_fully_dormant_when_off(probe):
    """``op_tracing=False`` (the default) leaves no tracker, no ``op.*``
    aggregate, and — against an identical traced run — not one extra
    flight-recorder write: span accounting lives on the thread-local
    span object, never on the ring."""
    _calls_off, db_off = probe()
    _calls_on, db_on = probe(op_tracing=True)
    assert db_off.spans is None
    assert "op" not in db_off.metrics.snapshot()
    assert db_on.spans.started > 0
    assert "op" in db_on.metrics.snapshot()
    assert db_off.flightrec.writes() == db_on.flightrec.writes()
