"""Framed RPC over a raw byte stream (the partition wire protocol).

The cluster runs one OS process per partition; the front end talks to
each worker over a ``socket.socketpair()`` inherited across ``fork``.
A Unix stream socket delivers *bytes*, not messages, so this module
supplies the framing the transport lacks:

``frame := header || payload``
    ``header = struct('!II')`` — payload length and CRC32 over the
    payload.  ``payload`` is the pickled message object.

The CRC turns a half-written frame (worker killed mid-``send``) into a
typed :class:`~repro.errors.FrameCorruptionError` instead of a pickle
error deep inside the client, exactly as the page/WAL checksums do for
the storage layer (DESIGN.md §9).  EOF — the peer process died — is a
typed :class:`~repro.errors.ChannelClosedError`, which is the signal
the supervisor keys worker-death detection on.

Messages are request/response pairs:

* request: ``(request_id, method, payload)``
* response: ``(request_id, ok, payload)`` — ``ok=False`` carries
  ``(exception_class_name, message)`` and is re-raised client-side as
  :class:`~repro.errors.WorkerFaultError`.

Batching happens *above* the framing: one request's payload may carry a
whole operation batch (``multi_put`` pairs, a scatter fan-out leg), so
the per-frame overhead — two syscalls, one header — amortizes across
the batch, mirroring how the PR 7 batch APIs amortize descent cost.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
import zlib

from repro.errors import (
    ChannelClosedError,
    FrameCorruptionError,
    RpcTimeoutError,
    best_effort,
)

#: frame header: payload length + CRC32 over the payload
_HEADER = struct.Struct("!II")

#: refuse absurd frames instead of attempting a multi-GiB recv — a
#: corrupt length field must fail fast, not allocate
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameChannel:
    """One endpoint of a framed, pickled message stream.

    Thread-compatibility: a channel is *not* internally locked — the
    owner (client stub or worker loop) serializes access.  The client
    side wraps each channel in a per-partition mutex acquired in
    partition order for scatter calls, which is what makes concurrent
    multi-partition fan-outs deadlock-free.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        #: wire accounting, read by the cluster metrics gauges
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def send(self, message: object, timeout: float | None = None) -> None:
        """Pickle ``message`` and write it as one framed unit.

        ``timeout`` bounds the whole send: a peer whose socket buffer
        is full (hung worker, reader stopped) raises
        :class:`~repro.errors.RpcTimeoutError` instead of blocking in
        ``sendall`` forever.  After a timeout the stream position is
        undefined (the frame may be half-written) — the channel must be
        closed, never reused.
        """
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(len(payload), zlib.crc32(payload))
        try:
            self._sock.settimeout(timeout)
            self._sock.sendall(header + payload)
        except socket.timeout as exc:
            raise RpcTimeoutError(
                f"send exceeded {timeout:.3f}s (peer hung?)"
            ) from exc
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ChannelClosedError(f"peer gone on send: {exc}") from exc
        finally:
            self._settimeout_quietly(None)
        self.frames_sent += 1
        self.bytes_sent += len(header) + len(payload)

    def recv(self, timeout: float | None = None) -> object:
        """Read one frame, verify its CRC and unpickle the message.

        ``timeout`` bounds the *whole* frame (header + payload), not
        each chunk; on expiry :class:`~repro.errors.RpcTimeoutError` is
        raised and the channel is poisoned — a half-read frame cannot
        be resynchronized, so the caller must close it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        header = self._recv_exact(_HEADER.size, deadline)
        length, crc = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise FrameCorruptionError(
                f"frame length {length} exceeds {MAX_FRAME_BYTES}"
            )
        payload = self._recv_exact(length, deadline)
        if zlib.crc32(payload) != crc:
            raise FrameCorruptionError(
                f"frame CRC mismatch over {length} bytes"
            )
        self.frames_received += 1
        self.bytes_received += _HEADER.size + length
        return pickle.loads(payload)

    def _recv_exact(
        self, count: int, deadline: float | None = None
    ) -> bytes:
        chunks: list[bytes] = []
        remaining = count
        while remaining:
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise RpcTimeoutError(
                        f"recv deadline expired with "
                        f"{count - remaining}/{count} bytes read"
                    )
                self._settimeout_quietly(budget)
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout as exc:
                raise RpcTimeoutError(
                    f"recv deadline expired with "
                    f"{count - remaining}/{count} bytes read"
                ) from exc
            except (ConnectionResetError, OSError) as exc:
                raise ChannelClosedError(
                    f"peer gone on recv: {exc}"
                ) from exc
            finally:
                if deadline is not None:
                    self._settimeout_quietly(None)
            if not chunk:
                raise ChannelClosedError(
                    f"peer closed mid-frame ({count - remaining}/{count} "
                    "bytes read)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _settimeout_quietly(self, timeout: float | None) -> None:
        """Reset the socket timeout; a closed socket is already fatal."""
        best_effort(self._sock.settimeout, timeout, only=(OSError,))

    def close(self) -> None:
        """Close this endpoint (idempotent)."""
        best_effort(self._sock.close, only=(OSError,))

    def fileno(self) -> int:
        """Underlying descriptor (inherited by forked workers)."""
        return self._sock.fileno()


def channel_pair() -> tuple[FrameChannel, FrameChannel]:
    """A connected (client, worker) channel pair over a socketpair."""
    a, b = socket.socketpair()
    return FrameChannel(a), FrameChannel(b)


# ---------------------------------------------------------------------------
# request / response envelopes
# ---------------------------------------------------------------------------


def ok_response(req_id: int, payload: object) -> tuple:
    """Build a success response envelope."""
    return (req_id, True, payload)


def error_response(req_id: int, exc: BaseException) -> tuple:
    """Build an error response carrying the exception's identity."""
    return (req_id, False, (type(exc).__name__, str(exc)))
