"""Serving clients: a sequential stub and a pipelined load driver.

:class:`ReproClient` is the ergonomic one-call-at-a-time stub: each
method stamps an absolute deadline from its ``timeout``, sends one
request frame and blocks for the matching response.  Backpressure and
deadline outcomes surface as typed exceptions
(:class:`~repro.errors.RetryLater`,
:class:`~repro.errors.DeadlineExceededError`) so callers can honor the
server's hints instead of guessing.

:class:`PipelinedClient` exists for *open-loop* load: a sequential
client cannot offer load faster than the server answers (the offered
rate degenerates to the service rate — closed-loop coordination
omission).  The pipelined client decouples the two with a receiver
thread matching responses to requests by req-id, so the load
generator can submit on the arrival schedule regardless of how far
behind the server is.

Both clients poison themselves on a receive timeout: a late response
frame for an abandoned request would desynchronize the req/resp
pairing, exactly the argument behind the cluster channel's poisoning
rule.
"""

from __future__ import annotations

import itertools
import select
import socket
import threading
import time

from repro.cluster.rpc import FrameChannel
from repro.errors import (
    ChannelClosedError,
    DeadlineExceededError,
    RemoteOpError,
    RetryLater,
    RpcTimeoutError,
    SessionError,
)
from repro.server import protocol

__all__ = ["PipelinedClient", "ReproClient"]


def _connect(
    host: str, port: int, connect_timeout: float
) -> FrameChannel:
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return FrameChannel(sock)


def _raise_for_status(status: str, payload: object) -> object:
    if status == protocol.OK:
        return payload
    if status == protocol.RETRY:
        raise RetryLater(payload["retry_after"], payload["reason"])
    if status == protocol.DEADLINE:
        raise DeadlineExceededError(payload)
    kind, message = payload  # protocol.ERROR
    raise RemoteOpError(kind, message)


class ReproClient:
    """Sequential request/response stub over one session."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str | None = None,
        *,
        connect_timeout: float = 5.0,
        grace: float = 1.0,
    ) -> None:
        self.client_id = client_id or f"client-{id(self):x}"
        #: extra seconds past the deadline to wait for the server's
        #: own shed/deadline frame before declaring the call dead
        self.grace = grace
        self._channel = _connect(host, port, connect_timeout)
        self._req_ids = itertools.count(1)
        self._poisoned = False
        self._channel.send(protocol.hello(self.client_id))
        ack = self._channel.recv(timeout=connect_timeout)
        if not (
            isinstance(ack, tuple) and ack[0] == protocol.HELLO
        ):  # pragma: no cover - server always acks or closes
            raise SessionError(f"bad handshake ack: {ack!r}")
        self.session = ack[2]["session"]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _call(
        self, method: str, payload: object, timeout: float | None
    ) -> object:
        if self._poisoned:
            raise SessionError(
                "client poisoned by an earlier timeout; reconnect"
            )
        deadline = None if timeout is None else time.time() + timeout
        req_id = next(self._req_ids)
        wait = None if timeout is None else timeout + self.grace
        try:
            self._channel.send(
                protocol.request(req_id, method, deadline, payload)
            )
            got_id, status, body = self._channel.recv(timeout=wait)
        except RpcTimeoutError as exc:
            self._poisoned = True
            self._channel.close()
            raise DeadlineExceededError(
                f"{method} got no response within "
                f"{timeout:.3f}s (+{self.grace:.3f}s grace)"
            ) from exc
        if got_id != req_id:  # pragma: no cover - strict pairing
            self._poisoned = True
            self._channel.close()
            raise SessionError(
                f"response {got_id} != request {req_id}"
            )
        return _raise_for_status(status, body)

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def ping(self, timeout: float | None = 5.0) -> str:
        return self._call("ping", None, timeout)

    def health(self, timeout: float | None = 5.0) -> dict:
        return self._call("health", None, timeout)

    def stats(self, timeout: float | None = 5.0) -> dict:
        return self._call("stats", None, timeout)

    def put(self, tree, key, rid, timeout=None) -> dict:
        return self._call("put", (tree, key, rid), timeout)

    def get(self, tree, key, timeout=None) -> list:
        return self._call("get", (tree, key), timeout)

    def delete(self, tree, key, rid, timeout=None) -> dict:
        return self._call("delete", (tree, key, rid), timeout)

    def batch(self, tree, ops, timeout=None) -> dict:
        return self._call("batch", (tree, ops), timeout)

    def multi_put(self, tree, pairs, timeout=None) -> int:
        return self._call("multi_put", (tree, list(pairs)), timeout)

    def multi_get(self, tree, keys, timeout=None) -> dict:
        return self._call("multi_get", (tree, list(keys)), timeout)

    def multi_delete(self, tree, pairs, timeout=None) -> int:
        return self._call("multi_delete", (tree, list(pairs)), timeout)

    def search(self, tree, query, timeout=None) -> list:
        return self._call("search", (tree, query), timeout)

    def close(self) -> None:
        self._channel.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PipelinedClient:
    """Many-in-flight client for open-loop load generation.

    ``submit`` sends immediately and returns; the receiver thread
    matches responses by req-id and invokes ``callback(outcome)``
    with an outcome dict::

        {"req_id", "method", "status", "payload", "latency"}

    ``status`` is the wire status, or ``"timeout"`` for requests the
    reaper expired client-side (server never answered within deadline
    + grace), or ``"dropped"`` for requests in flight when the
    connection died.  Every submitted request gets exactly one
    outcome — the load generator's ledger depends on it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str | None = None,
        *,
        connect_timeout: float = 5.0,
        grace: float = 1.0,
    ) -> None:
        self.client_id = client_id or f"pipelined-{id(self):x}"
        self.grace = grace
        self._channel = _connect(host, port, connect_timeout)
        self._req_ids = itertools.count(1)
        self._send_lock = threading.Lock()
        #: req_id -> (method, callback, sent_at, expiry or None)
        self._pending: dict[int, tuple] = {}
        self._pending_lock = threading.Lock()
        self._closed = False
        self._channel.send(protocol.hello(self.client_id))
        ack = self._channel.recv(timeout=connect_timeout)
        if not (
            isinstance(ack, tuple) and ack[0] == protocol.HELLO
        ):  # pragma: no cover - server always acks or closes
            raise SessionError(f"bad handshake ack: {ack!r}")
        self.session = ack[2]["session"]
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"cli-recv-{self.session}",
            daemon=True,
        )
        self._receiver.start()

    def submit(
        self,
        method: str,
        payload: object,
        callback,
        timeout: float | None = None,
    ) -> int:
        """Send one request; the callback fires from the receiver."""
        if self._closed:
            raise SessionError("client closed")
        deadline = None if timeout is None else time.time() + timeout
        req_id = next(self._req_ids)
        now = time.monotonic()
        expiry = None if timeout is None else now + timeout + self.grace
        with self._pending_lock:
            self._pending[req_id] = (method, callback, now, expiry)
        try:
            with self._send_lock:
                self._channel.send(
                    protocol.request(req_id, method, deadline, payload)
                )
        except (ChannelClosedError, RpcTimeoutError, OSError):
            self._finish(req_id, "dropped", None)
        return req_id

    def _finish(
        self, req_id: int, status: str, payload: object
    ) -> None:
        with self._pending_lock:
            entry = self._pending.pop(req_id, None)
        if entry is None:
            return  # reaped or already finished
        method, callback, sent_at, _expiry = entry
        callback(
            {
                "req_id": req_id,
                "method": method,
                "status": status,
                "payload": payload,
                "latency": time.monotonic() - sent_at,
            }
        )

    def _receive_loop(self) -> None:
        # Poll with select, then a *blocking* recv: a timeout inside
        # recv could expire mid-frame and poison the stream, while a
        # select wakeup guarantees at least the header has started —
        # the rest of the frame follows at once on a local stream.
        while not self._closed:
            try:
                ready, _, _ = select.select(
                    [self._channel.fileno()], [], [], 0.1
                )
                if not ready:
                    self._reap()
                    continue
                frame = self._channel.recv()
            except (ChannelClosedError, OSError, ValueError):
                break
            req_id, status, payload = frame
            self._finish(req_id, status, payload)
        # connection gone: every in-flight request gets its outcome
        with self._pending_lock:
            leftover = list(self._pending)
        for req_id in leftover:
            self._finish(req_id, "dropped", None)

    def _reap(self) -> None:
        """Expire requests whose deadline + grace passed unanswered."""
        now = time.monotonic()
        with self._pending_lock:
            expired = [
                rid
                for rid, (_m, _cb, _s, expiry) in self._pending.items()
                if expiry is not None and now >= expiry
            ]
        for rid in expired:
            self._finish(rid, "timeout", None)

    def pending(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def close(self) -> None:
        self._closed = True
        self._channel.close()
        self._receiver.join(timeout=2.0)

    def __enter__(self) -> "PipelinedClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
