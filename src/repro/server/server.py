"""The serving front end: sessions, admission, workers, accounting.

Request lifecycle (DESIGN.md §14)::

    accept -> hello -> [reader thread]
        classify -> deadline check -> queue offer
            full/stopping -> RETRY frame (explicit shed)
            expired                 -> DEADLINE frame
            admitted                -> Ticket parked in class queue
    [worker pool per class]
        take -> deadline re-check (shed expired work *before* the
        descent) -> execute with remaining budget -> OK/ERROR/RETRY

Threading: one reader thread per connection, a fixed worker pool per
admission class, one accept thread.  Workers and the reader share the
connection's socket for responses, serialized by a per-connection send
lock.  Control verbs (ping/health/stats) are served inline on the
reader thread — an overloaded data path must never blind the operator.

Accounting is *exact*: every offered request lands in exactly one
terminal counter, and the class invariants::

    offered  == admitted + rejected.queue + rejected.stopping
                + shed.admission
    admitted == completed + failed + shed.dequeue + shed.backend
                + shed.stopping

are asserted by the serving benchmark against both the server's and
the clients' independent ledgers.  Counters are the exact sharded
:class:`~repro.obs.metrics.Counter`, so the sums hold to the op.

A shed *burst* (many sheds within a short window) triggers a flight
recorder dump — the black box for the postmortem question "what was
the server doing when it started shedding?".
"""

from __future__ import annotations

import collections
import itertools
import os
import socket
import threading
import time

from repro.cluster.rpc import FrameChannel
from repro.errors import (
    ChannelClosedError,
    FrameCorruptionError,
    RetryLater,
    RpcTimeoutError,
    SessionError,
    best_effort,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.server import protocol
from repro.server.admission import AdmissionQueue, Ticket

__all__ = ["DatabaseServer"]

#: seconds a worker blocks in ``take`` before re-checking stop state
_TAKE_POLL = 0.05

#: seconds ``stop()`` waits for queues to drain before shedding them
_DRAIN_GRACE = 2.0


class _Connection:
    """One client session: channel + send serialization + identity."""

    def __init__(
        self, channel: FrameChannel, session: int, peer: str
    ) -> None:
        self.channel = channel
        self.session = session
        self.peer = peer
        self.client_id = f"session-{session}"
        self.send_lock = threading.Lock()
        self.closed = False

    def send(self, envelope: tuple) -> bool:
        """Send ``envelope``; False when the client is gone."""
        with self.send_lock:
            if self.closed:
                return False
            try:
                self.channel.send(envelope)
                return True
            except (ChannelClosedError, RpcTimeoutError, OSError):
                self.closed = True
                return False

    def close(self) -> None:
        self.closed = True
        self.channel.close()


class DatabaseServer:
    """TCP front end over a serving backend (see module docstring).

    Parameters
    ----------
    backend:
        A :class:`~repro.server.backend.LocalBackend` or
        :class:`~repro.server.backend.ClusterBackend`.  The server
        does not own it: ``stop()`` leaves the backend running.
    point_capacity / scan_capacity:
        Admission queue bounds per class.
    point_workers / scan_workers:
        Executor threads per class.
    blackbox_dir:
        Where shed-burst flight recorder dumps land (None disables).
    shed_burst / shed_burst_window:
        Dump when ``shed_burst`` sheds occur within the window (s).
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        point_capacity: int = 64,
        scan_capacity: int = 16,
        point_workers: int = 4,
        scan_workers: int = 2,
        metrics_enabled: bool = True,
        blackbox_dir: str | None = None,
        shed_burst: int = 32,
        shed_burst_window: float = 1.0,
    ) -> None:
        self.backend = backend
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.recorder = FlightRecorder(capacity=1024)
        self.queues: dict[str, AdmissionQueue] = {
            protocol.POINT: AdmissionQueue(
                protocol.POINT, point_capacity
            ),
            protocol.SCAN: AdmissionQueue(protocol.SCAN, scan_capacity),
        }
        self._workers_per_class = {
            protocol.POINT: point_workers,
            protocol.SCAN: scan_workers,
        }
        self.blackbox_dir = blackbox_dir
        self.shed_burst = shed_burst
        self.shed_burst_window = shed_burst_window
        self._shed_stamps: collections.deque[float] = collections.deque()
        self._shed_lock = threading.Lock()
        self._dumps = 0
        self._sessions = itertools.count(1)
        self._conns: list[_Connection] = []
        self._conns_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._stopping = False
        self._started_at = 0.0
        for klass, queue in self.queues.items():
            self.metrics.gauge(f"server.queue.{klass}", queue.snapshot)
        self.metrics.gauge(
            "server.blackbox_dumps", lambda: self._dumps
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DatabaseServer":
        """Bind, listen, and spin up accept + worker threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._started_at = time.monotonic()
        accept = threading.Thread(
            target=self._accept_loop, name="srv-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        for klass, count in self._workers_per_class.items():
            for i in range(count):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(klass,),
                    name=f"srv-{klass}-{i}",
                    daemon=True,
                )
                worker.start()
                self._threads.append(worker)
        return self

    def stop(self) -> None:
        """Graceful drain: reject new work, finish or shed the queued.

        Order matters: flip the stopping flag (readers start answering
        ``RETRY stopping``), close the listener, give the workers a
        grace period to drain the queues, then shed what remains with
        explicit frames — a stopping server still never drops work
        silently — and only then tear down the connections.
        """
        if self._stopping:
            return
        self._stopping = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does, so srv-accept exits at once.
            best_effort(
                self._listener.shutdown, socket.SHUT_RDWR, only=(OSError,)
            )
            best_effort(self._listener.close, only=(OSError,))
        deadline = time.monotonic() + _DRAIN_GRACE
        while time.monotonic() < deadline and any(
            len(q) for q in self.queues.values()
        ):
            time.sleep(0.01)
        for queue in self.queues.values():
            queue.close()
        for klass, queue in self.queues.items():
            for ticket in queue.drain():
                self.metrics.counter(
                    f"server.shed.stopping.{klass}"
                ).inc()
                ticket.conn.send(
                    protocol.retry(ticket.req_id, 0.1, "stopping")
                )
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # accept / session plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: stop() is in progress
            sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            conn = _Connection(
                FrameChannel(sock),
                next(self._sessions),
                f"{addr[0]}:{addr[1]}",
            )
            with self._conns_lock:
                self._conns.append(conn)
            reader = threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name=f"srv-reader-{conn.session}",
                daemon=True,
            )
            reader.start()

    def _handshake(self, conn: _Connection) -> bool:
        try:
            frame = conn.channel.recv(timeout=5.0)
        except (
            ChannelClosedError,
            FrameCorruptionError,
            RpcTimeoutError,
        ):
            return False
        if (
            not isinstance(frame, tuple)
            or len(frame) != 3
            or frame[0] != protocol.HELLO
            or frame[1] != protocol.PROTOCOL_VERSION
        ):
            conn.send(
                protocol.error(
                    0, SessionError("expected hello handshake")
                )
            )
            return False
        conn.client_id = str(frame[2])
        return conn.send(protocol.hello_ack(conn.session))

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            if not self._handshake(conn):
                return
            while not conn.closed:
                try:
                    frame = conn.channel.recv()
                except (ChannelClosedError, FrameCorruptionError):
                    return  # client gone or stream garbled: done
                self._dispatch(conn, frame)
        finally:
            conn.close()
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    # ------------------------------------------------------------------
    # admission pipeline (reader side)
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, frame: object) -> None:
        if not isinstance(frame, tuple) or len(frame) != 4:
            conn.send(
                protocol.error(
                    0, SessionError("malformed request envelope")
                )
            )
            return
        req_id, method, deadline, payload = frame
        try:
            klass = protocol.classify(method)
        except ValueError as exc:
            self.metrics.counter("server.protocol_errors").inc()
            conn.send(protocol.error(req_id, exc))
            return
        if klass == protocol.CONTROL:
            self._serve_control(conn, req_id, method)
            return
        self.metrics.counter(f"server.offered.{klass}").inc()
        if self._stopping:
            self.metrics.counter(
                f"server.rejected.stopping.{klass}"
            ).inc()
            conn.send(protocol.retry(req_id, 0.1, "stopping"))
            return
        ticket = Ticket(
            req_id=req_id,
            method=method,
            payload=payload,
            deadline=deadline,
            conn=conn,
            klass=klass,
        )
        if ticket.expired():
            # dead on arrival: the client's stamp expired in flight
            self.metrics.counter(f"server.shed.admission.{klass}").inc()
            self._note_shed(klass, "admission", conn.client_id)
            conn.send(
                protocol.deadline_exceeded(
                    req_id, "deadline expired before admission"
                )
            )
            return
        queue = self.queues[klass]
        if not queue.offer(ticket):
            self.metrics.counter(f"server.rejected.queue.{klass}").inc()
            self._note_shed(klass, "queue_full", conn.client_id)
            conn.send(
                protocol.retry(req_id, queue.retry_hint(), "queue_full")
            )
            return
        self.metrics.counter(f"server.admitted.{klass}").inc()

    # ------------------------------------------------------------------
    # execution (worker side)
    # ------------------------------------------------------------------
    def _worker_loop(self, klass: str) -> None:
        queue = self.queues[klass]
        latency = self.metrics.histogram(f"server.latency.{klass}")
        while True:
            ticket = queue.take(_TAKE_POLL)
            if ticket is None:
                if self._stopping:
                    return
                continue
            if ticket.expired():
                # the deadline re-check: shed queued-but-stale work
                # *before* spending a descent on it
                self.metrics.counter(
                    f"server.shed.dequeue.{klass}"
                ).inc()
                self._note_shed(klass, "dequeue", ticket.conn.client_id)
                ticket.conn.send(
                    protocol.deadline_exceeded(
                        ticket.req_id, "deadline expired in queue"
                    )
                )
                continue
            start = time.monotonic()
            try:
                result = self._execute(ticket)
            except RetryLater as exc:
                self.metrics.counter(
                    f"server.shed.backend.{klass}"
                ).inc()
                self._note_shed(
                    klass, exc.reason, ticket.conn.client_id
                )
                ticket.conn.send(
                    protocol.retry(
                        ticket.req_id, exc.retry_after, exc.reason
                    )
                )
            except Exception as exc:
                self.metrics.counter(f"server.failed.{klass}").inc()
                ticket.conn.send(protocol.error(ticket.req_id, exc))
            else:
                self.metrics.counter(f"server.completed.{klass}").inc()
                latency.record(time.monotonic() - start)
                ticket.conn.send(protocol.ok(ticket.req_id, result))

    def _execute(self, ticket: Ticket) -> object:
        budget = ticket.remaining()
        method, p = ticket.method, ticket.payload
        backend = self.backend
        if method == "put":
            return backend.put(p[0], p[1], p[2], timeout=budget)
        if method == "get":
            return backend.get(p[0], p[1], timeout=budget)
        if method == "delete":
            return backend.delete(p[0], p[1], p[2], timeout=budget)
        if method == "batch":
            return backend.batch(p[0], p[1], timeout=budget)
        if method == "multi_put":
            return backend.multi_put(p[0], p[1], timeout=budget)
        if method == "multi_get":
            return backend.multi_get(p[0], p[1], timeout=budget)
        if method == "multi_delete":
            return backend.multi_delete(p[0], p[1], timeout=budget)
        if method == "search":
            return backend.search(p[0], p[1], timeout=budget)
        raise ValueError(f"unroutable method {ticket.method!r}")

    # ------------------------------------------------------------------
    # control plane (served inline on the reader thread)
    # ------------------------------------------------------------------
    def _serve_control(
        self, conn: _Connection, req_id: int, method: str
    ) -> None:
        try:
            if method == "ping":
                conn.send(protocol.ok(req_id, "pong"))
            elif method == "health":
                conn.send(protocol.ok(req_id, self.health()))
            else:  # "stats" — classify() admits nothing else
                conn.send(protocol.ok(req_id, self.stats()))
        except Exception as exc:
            conn.send(protocol.error(req_id, exc))

    def health(self) -> dict:
        return {
            "status": "stopping" if self._stopping else "ok",
            "uptime": round(time.monotonic() - self._started_at, 3),
            "sessions": len(self._conns),
            "queues": {
                klass: queue.snapshot()
                for klass, queue in self.queues.items()
            },
            "backend": self.backend.health(),
        }

    def stats(self) -> dict:
        """Server + backend metrics, plus their merged roll-up.

        For a cluster backend the merge folds the server's counters
        with the cluster front-end registry and the cross-partition
        aggregate — three heterogeneous namespaces,
        :func:`~repro.obs.metrics.merge_snapshots` handles the
        asymmetry by construction.
        """
        server_snap = self.metrics.snapshot()
        backend_snap = self.backend.snapshot()
        if "aggregate" in backend_snap and "cluster" in backend_snap:
            merged = merge_snapshots(
                [
                    server_snap,
                    backend_snap["cluster"],
                    backend_snap["aggregate"],
                ]
            )
        else:
            merged = merge_snapshots([server_snap, backend_snap])
        return {
            "server": server_snap,
            "backend": backend_snap,
            "merged": merged,
        }

    # ------------------------------------------------------------------
    # shed bookkeeping / black box
    # ------------------------------------------------------------------
    def _note_shed(
        self, klass: str, reason: str, client_id: str
    ) -> None:
        self.recorder.record(
            "server.shed", klass=klass, reason=reason, client=client_id
        )
        if self.blackbox_dir is None:
            return
        now = time.monotonic()
        dump_path = None
        with self._shed_lock:
            stamps = self._shed_stamps
            stamps.append(now)
            floor = now - self.shed_burst_window
            while stamps and stamps[0] < floor:
                stamps.popleft()
            if len(stamps) >= self.shed_burst:
                stamps.clear()  # one dump per burst, not per shed
                self._dumps += 1
                dump_path = os.path.join(
                    self.blackbox_dir,
                    f"server-shed-burst-{self._dumps}.jsonl",
                )
        if dump_path is not None:
            os.makedirs(self.blackbox_dir, exist_ok=True)
            self.recorder.dump(dump_path)
