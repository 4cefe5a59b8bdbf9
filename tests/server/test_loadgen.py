"""Load generator ledgers: every sent frame lands in one bucket."""

import random

import pytest

from repro.database import Database
from repro.errors import RetryLater
from repro.ext.btree import BTreeExtension
from repro.server import DatabaseServer, LocalBackend
from repro.server.loadgen import (
    LoadReport,
    run_closed_loop,
    run_open_loop,
)
from repro.workload.generator import PoissonArrivals


@pytest.fixture
def server():
    db = Database()
    db.create_tree("t", BTreeExtension())
    with DatabaseServer(LocalBackend(db), port=0) as srv:
        yield srv
    db.shutdown()


class TestLoadReport:
    def test_balanced_accounting(self):
        report = LoadReport(offered=10, completed=6, failed=1)
        report.note_retry("queue_full")
        report.note_retry("queue_full")
        assert not report.balanced()  # 9 terminal vs 10 offered
        report.timeouts = 1
        assert report.balanced()
        assert report.retries == 2

    def test_merge_folds_every_bucket(self):
        a = LoadReport(offered=5, completed=4, latencies=[0.1])
        a.note_retry("rate_limit")
        b = LoadReport(offered=4, completed=2, dropped=1)
        b.note_retry("rate_limit")
        a.merge(b)
        assert a.offered == 9
        assert a.completed == 6
        assert a.retried == {"rate_limit": 2}
        assert a.dropped == 1
        assert a.balanced()

    def test_percentile(self):
        report = LoadReport(
            latencies=[i / 100 for i in range(1, 101)]
        )
        assert report.percentile(0.5) == pytest.approx(0.50, abs=0.02)
        assert report.percentile(0.99) == pytest.approx(0.99, abs=0.02)
        assert LoadReport().percentile(0.99) == 0.0


class TestClosedLoop:
    def test_clean_run_is_fully_completed(self, server):
        plan = [("put", ("t", k, f"r{k}")) for k in range(30)]
        plan += [("get", ("t", k)) for k in range(30)]
        report = run_closed_loop(
            "127.0.0.1",
            server.port,
            plan,
            client_id="clean",
            deadline=5.0,
        )
        assert report.offered == 60
        assert report.completed == 60
        assert report.balanced()
        assert len(report.latencies) == 60

    def test_retries_are_ledgered_and_resolve(self):
        db = Database()
        db.create_tree("t", BTreeExtension())
        with DatabaseServer(LocalBackend(db), port=0) as srv:
            real_put = srv.backend.put
            refused = set()

            def put_refused_once(tree, key, rid, timeout=None):
                # an even key's first attempt is shed by the backend
                if key % 2 == 0 and key not in refused:
                    refused.add(key)
                    raise RetryLater(0.001, "circuit_open")
                return real_put(tree, key, rid, timeout=timeout)

            srv.backend.put = put_refused_once
            report = run_closed_loop(
                "127.0.0.1",
                srv.port,
                [("put", ("t", k, "r")) for k in range(20)],
                client_id="throttled",
                deadline=5.0,
                rng=random.Random(7),
            )
        db.shutdown()
        assert report.completed == 20
        assert report.retried == {"circuit_open": 10}
        assert report.balanced()


class TestOpenLoop:
    def test_poisson_schedule_drives_and_balances(self, server):
        arrivals = PoissonArrivals(
            rate=400.0, duration=0.25, seed=11
        )
        ops = []
        rng = random.Random(11)
        for i in range(len(arrivals.offsets())):
            key = rng.randrange(100)
            if rng.random() < 0.5:
                ops.append(("put", ("t", key, f"r{i}")))
            else:
                ops.append(("get", ("t", key)))
        schedule = arrivals.schedule(ops)
        report = run_open_loop(
            "127.0.0.1",
            server.port,
            schedule,
            client_id="open",
            deadline=2.0,
        )
        assert report.offered == len(schedule)
        assert report.completed > 0
        assert report.balanced()

    def test_open_loop_outruns_a_tiny_queue(self):
        # open-loop arrivals past capacity must shed, not wedge
        db = Database()
        db.create_tree("t", BTreeExtension())
        with DatabaseServer(
            LocalBackend(db),
            port=0,
            point_capacity=2,
            point_workers=1,
        ) as srv:
            real_put = srv.backend.put

            def slow_put(tree, key, rid, timeout=None):
                import time as _time

                _time.sleep(0.02)
                return real_put(tree, key, rid, timeout=timeout)

            srv.backend.put = slow_put
            schedule = [
                (i * 0.002, "put", ("t", i, f"r{i}"))
                for i in range(50)
            ]
            report = run_open_loop(
                "127.0.0.1",
                srv.port,
                schedule,
                client_id="flood",
                deadline=5.0,
            )
        db.shutdown()
        assert report.offered == 50
        assert report.balanced()
        assert report.retried.get("queue_full", 0) > 0
        assert report.completed > 0
