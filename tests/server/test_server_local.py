"""End-to-end serving over an embedded database backend."""

import json
import threading
import time

import pytest

from repro.database import Database
from repro.errors import DeadlineExceededError, RemoteOpError
from repro.ext.btree import BTreeExtension, Interval
from repro.server import (
    DatabaseServer,
    LocalBackend,
    PipelinedClient,
    ReproClient,
)
from repro.wal.records import CommitRecord


@pytest.fixture
def backend():
    db = Database()
    db.create_tree("t", BTreeExtension())
    yield LocalBackend(db)
    db.shutdown()


@pytest.fixture
def server(backend):
    with DatabaseServer(backend, port=0) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ReproClient("127.0.0.1", server.port, "test-client") as c:
        yield c


def _count(server, *path):
    node = server.metrics.snapshot().get("server", {})
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return 0
        node = node[part]
    return node if isinstance(node, int) else 0


class TestVerbs:
    def test_put_get_delete_round_trip(self, client):
        ack = client.put("t", 10, "r1")
        assert ack["commit_lsn"] > 0
        assert ack["durable_lsn"] >= ack["commit_lsn"]
        assert client.get("t", 10) == ["r1"]
        client.delete("t", 10, "r1")
        assert client.get("t", 10) == []

    def test_multi_ops_and_search(self, client):
        client.multi_put("t", [(k, f"r{k}") for k in range(20)])
        got = client.multi_get("t", [3, 7, 99])
        assert got[3] == ["r3"]
        assert got[7] == ["r7"]
        assert got[99] == []
        pairs = client.search("t", Interval(5, 10))
        assert sorted(pairs) == [(k, f"r{k}") for k in range(5, 11)]
        client.multi_delete("t", [(3, "r3")])
        assert client.get("t", 3) == []

    def test_batch_preserves_input_order(self, client):
        ack = client.batch(
            "t",
            [
                ("put", 1, "a"),
                ("put", 2, "b"),
                ("get", 1),
                ("delete", 1, "a"),
                ("get", 1),
            ],
        )
        results = ack["results"]
        assert results[2] == ["a"]
        assert results[4] == []
        assert ack["commit_lsn"] > 0

    def test_ack_names_the_batchs_own_commit_record(self, client, backend):
        log = backend.db.log
        ack = client.batch("t", [("put", 1, "a")])
        record = log.get(ack["commit_lsn"])
        assert isinstance(record, CommitRecord)
        assert log.get(record.prev_lsn).rid == "a"
        # a batch that only read put nothing in the log
        end = log.end_lsn
        ack = client.batch("t", [("get", 1)])
        assert ack["results"] == [["a"]]
        assert ack["commit_lsn"] == 0
        assert log.end_lsn == end

    def test_ping_health_stats(self, client):
        assert client.ping() == "pong"
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["queues"]) == {"point", "scan"}
        stats = client.stats()
        assert "server" in stats and "merged" in stats

    def test_unknown_method_is_protocol_error(self, client, server):
        with pytest.raises(RemoteOpError):
            client._call("drop_everything", None, 1.0)
        assert _count(server, "protocol_errors") == 1

    def test_error_frames_carry_kind(self, client):
        with pytest.raises(RemoteOpError) as info:
            client.get("no-such-tree", 1)
        assert info.value.kind  # exception class name travels the wire

    def test_two_clients_are_independent_sessions(self, server, client):
        with ReproClient("127.0.0.1", server.port, "other") as other:
            assert other.session != client.session
            client.put("t", 5, "mine")
            assert other.get("t", 5) == ["mine"]


class TestDeadlines:
    def test_expired_on_arrival_is_shed_at_admission(
        self, server, client
    ):
        with pytest.raises(DeadlineExceededError):
            client._call("get", ("t", 1), -0.05)
        assert _count(server, "shed", "admission", "point") == 1
        assert _count(server, "admitted", "point") == 0

    def test_expired_in_queue_is_shed_at_dequeue(self, backend):
        # one slow worker: the first op occupies it while the second
        # ages out in the queue and must be shed before its descent
        real_get = backend.get

        def slow_get(tree, key, timeout=None):
            time.sleep(0.4)
            return real_get(tree, key, timeout=timeout)

        backend.get = slow_get
        with DatabaseServer(
            backend, port=0, point_workers=1
        ) as server:
            outcomes = []
            lock = threading.Lock()

            def note(result):
                with lock:
                    outcomes.append(result)

            with PipelinedClient(
                "127.0.0.1", server.port, "dl"
            ) as cli:
                cli.submit("get", ("t", 1), note, timeout=5.0)
                cli.submit("get", ("t", 2), note, timeout=0.1)
                deadline = time.monotonic() + 5.0
                while len(outcomes) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
            by_status = {o["status"] for o in outcomes}
            assert by_status == {"ok", "deadline"}
            assert _count(server, "shed", "dequeue", "point") == 1

    def test_accounting_balances_after_deadline_sheds(
        self, server, client
    ):
        for i in range(5):
            client.put("t", i, f"r{i}")
        for _ in range(3):
            with pytest.raises(DeadlineExceededError):
                client._call("get", ("t", 1), -0.05)
        offered = _count(server, "offered", "point")
        admitted = _count(server, "admitted", "point")
        shed_admission = _count(server, "shed", "admission", "point")
        assert offered == admitted + shed_admission == 8
        assert admitted == _count(server, "completed", "point") == 5


class TestBackpressure:
    def test_queue_full_gets_retry_with_hint(self, backend):
        # zero workers: nothing drains the queue, so offers past the
        # bound must come back as explicit RETRY frames, never hang
        server = DatabaseServer(
            backend,
            port=0,
            point_capacity=2,
            point_workers=0,
            scan_workers=0,
        )
        server.start()
        outcomes = []
        lock = threading.Lock()

        def note(result):
            with lock:
                outcomes.append(result)

        try:
            with PipelinedClient(
                "127.0.0.1", server.port, "bp"
            ) as cli:
                for i in range(4):
                    cli.submit("put", ("t", i, f"r{i}"), note)
                deadline = time.monotonic() + 2.0
                while len(outcomes) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                with lock:
                    retries = [
                        o for o in outcomes if o["status"] == "retry"
                    ]
                assert len(retries) == 2
                for o in retries:
                    assert o["payload"]["reason"] == "queue_full"
                    assert o["payload"]["retry_after"] > 0
                assert _count(server, "rejected", "queue", "point") == 2
                # graceful stop sheds the two parked tickets with
                # explicit frames — while the client still listens
                server.stop()
                deadline = time.monotonic() + 5.0
                while len(outcomes) < 4 and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            server.stop()
        with lock:
            stopping = [
                o
                for o in outcomes
                if o["status"] == "retry"
                and o["payload"]["reason"] == "stopping"
            ]
        assert len(stopping) == 2
        assert _count(server, "shed", "stopping", "point") == 2


class TestShedBurstBlackBox:
    def test_burst_of_sheds_dumps_flight_recorder(
        self, backend, tmp_path
    ):
        with DatabaseServer(
            backend,
            port=0,
            blackbox_dir=str(tmp_path),
            shed_burst=5,
            shed_burst_window=10.0,
        ) as server:
            with ReproClient(
                "127.0.0.1", server.port, "storm"
            ) as cli:
                cli.put("t", 0, "r0")
                for _ in range(6):  # dead on arrival: shed at admission
                    with pytest.raises(DeadlineExceededError):
                        cli._call("get", ("t", 0), -0.05)
            dumps = sorted(tmp_path.glob("server-shed-burst-*.jsonl"))
            assert len(dumps) == 1
            events = [
                json.loads(line)
                for line in dumps[0].read_text().splitlines()
            ]
            shed_events = [
                e for e in events if e["name"] == "server.shed"
            ]
            assert len(shed_events) >= 5
            assert shed_events[0]["data"]["reason"] == "admission"
            assert server.metrics.snapshot()["server"][
                "blackbox_dumps"
            ] == 1


class TestStop:
    def test_stop_is_prompt_and_leaves_no_server_thread(self, backend):
        before = set(threading.enumerate())
        srv = DatabaseServer(backend, port=0).start()
        # every join stop() makes, and whether it returned on timeout
        # (the thread still alive) rather than on the thread's exit
        joins = []

        def spy(thread):
            join = thread.join

            def counted(timeout=None):
                join(timeout)
                joins.append((thread.name, thread.is_alive()))

            thread.join = counted

        for thread in srv._threads:
            spy(thread)
        srv.stop()
        # a blocked accept() used to outlive the 2 s join timeout
        assert len(joins) == len(srv._threads) > 0
        assert [name for name, alive in joins if alive] == []
        left = [
            t.name
            for t in threading.enumerate()
            if t not in before and t.name.startswith("srv-")
        ]
        assert left == []
