"""Exception hierarchy for the GiST reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Errors that abort the surrounding
transaction (deadlock victims, explicit aborts) derive from
:class:`TransactionAbort` so that drivers can distinguish retryable
conditions from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TransactionAbort(ReproError):
    """Base class for conditions that abort the surrounding transaction.

    A driver that catches :class:`TransactionAbort` should roll back the
    transaction (if the library has not already done so) and may retry.
    """


class DeadlockError(TransactionAbort):
    """The lock manager chose this transaction as a deadlock victim."""


class LockTimeoutError(TransactionAbort):
    """A lock request exceeded its timeout (used as a deadlock backstop)."""


class TransactionStateError(ReproError):
    """An operation was attempted on a transaction in the wrong state."""


class UniqueViolationError(ReproError):
    """An insertion into a unique index found a committed duplicate.

    Per section 8 of the paper this error is *repeatable*: the duplicate's
    data record is S-locked under two-phase locking, so re-running the
    insert inside the same repeatable-read transaction reports the same
    error.
    """

    def __init__(self, key: object) -> None:
        super().__init__(f"duplicate key in unique index: {key!r}")
        self.key = key


class KeyNotFoundError(ReproError):
    """A delete targeted a (key, rid) pair that is not in the tree."""


class PageError(ReproError):
    """Base class for page/storage level errors."""


class PageNotFoundError(PageError):
    """A page id does not exist in the page store."""


class PageOverflowError(PageError):
    """An entry insertion exceeded the page capacity."""


class StorageFaultError(PageError):
    """Base class for injected or detected storage faults.

    Raised by the simulated disk when a :class:`repro.faults.FaultPlan`
    fires, and by the checksum machinery when it detects the damage a
    fault left behind.  All of them are *typed* failures: the database
    either retries/heals them or surfaces them — never silent
    corruption.
    """


class TransientIOError(StorageFaultError):
    """A page read failed transiently (injected by a fault plan).

    Retryable: the buffer pool retries a read immediately, up to
    ``BufferPool.IO_RETRIES`` times, and
    :func:`repro.harness.driver.run_with_retry` treats it like a
    deadlock abort at the transaction level.
    """


class DiskWriteError(StorageFaultError):
    """A page write failed permanently (injected by a fault plan).

    The buffer pool restores the frame's dirty state so the page image
    is never lost from memory; the WAL still covers the change, so a
    crash + restart recovers it onto repaired storage.
    """


class TornPageError(StorageFaultError):
    """A page read found a checksum mismatch (torn page write).

    Self-healable: when the WAL covers the page's full history the
    buffer pool rebuilds the image by replaying the log and re-persists
    it; otherwise the error surfaces to the caller.
    """


class BufferPoolError(ReproError):
    """Buffer pool misuse (e.g. unpinning an unpinned page)."""


class LatchError(ReproError):
    """Latch protocol misuse (e.g. releasing a latch not held)."""


class WALError(ReproError):
    """Log manager or recovery protocol failure."""


class RecoveryError(WALError):
    """Restart recovery detected an inconsistency it cannot repair."""


class CrashError(ReproError):
    """Raised by the crash-injection harness at the injected crash point."""


class ExtensionError(ReproError):
    """An access-method extension violated the GiST extension contract."""


class ClusterError(ReproError):
    """Base class for partitioned-database (``repro.cluster``) failures."""


class ChannelClosedError(ClusterError):
    """The RPC channel's peer vanished (EOF / broken pipe) mid-exchange."""


class FrameCorruptionError(ClusterError):
    """An RPC frame failed its length/CRC validation (torn or garbled)."""


class RpcTimeoutError(ClusterError):
    """A framed send/recv exceeded its per-call timeout.

    Raised at the channel layer.  The channel is *poisoned* after a
    timeout — a late response frame may still arrive and would desync
    the req/resp pairing — so the caller must close it and treat the
    peer as gone.  The partitioned front end converts this into
    :class:`PartitionTimeoutError` after killing the hung worker.
    """


class PartitionFailedError(ClusterError):
    """A partition worker died while serving a request.

    The in-flight operation's outcome is unknown: its commit may or may
    not have reached the partition's durable WAL shadow before the
    process died.  The supervisor recovers the partition; the caller
    decides whether to retry (idempotent reads) or surface the
    uncertainty (writes).
    """

    def __init__(self, partition: int, message: str = "") -> None:
        super().__init__(
            message or f"partition {partition} failed mid-request"
        )
        self.partition = partition


class PartitionTimeoutError(PartitionFailedError):
    """A partition missed its RPC deadline and was presumed hung.

    The worker was SIGKILLed (its channel is unusable after a timeout)
    and its circuit breaker tripped; recovery from the WAL shadow
    happens on the breaker's half-open probe, not inline, so one hung
    partition never stalls callers of the healthy ones.  Subclasses
    :class:`PartitionFailedError` so retry policies treat both alike.
    """

    def __init__(self, partition: int, timeout: float) -> None:
        super().__init__(
            partition,
            f"partition {partition} missed its {timeout:.3f}s deadline "
            "(presumed hung; killed)",
        )
        self.timeout = timeout


class CircuitOpenError(PartitionFailedError):
    """A partition's circuit breaker is open: fail fast, do not RPC.

    Carries ``retry_after`` — the seconds until the breaker will allow
    a half-open probe — so callers (the serving layer) can translate
    the fast failure into an explicit backpressure hint instead of a
    hot retry loop.
    """

    def __init__(self, partition: int, retry_after: float) -> None:
        super().__init__(
            partition,
            f"partition {partition} circuit open; retry in "
            f"{retry_after:.3f}s",
        )
        self.retry_after = retry_after


class WorkerFaultError(ClusterError):
    """A worker-side exception, re-raised on the client as a typed error.

    ``kind`` preserves the original exception class name so callers can
    branch on worker-side error taxonomy without sharing tracebacks
    across the process boundary.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class ServerError(ReproError):
    """Base class for the network serving layer (``repro.server``)."""


class RetryLater(ServerError):
    """Explicit backpressure: the server shed this request, try again.

    Never a silent drop — the frame carries ``retry_after``, the
    server's hint for how long the client should back off, and
    ``reason`` (``"queue_full"``, ``"circuit_open"``,
    ``"stopping"``) for accounting.
    """

    def __init__(self, retry_after: float, reason: str = "overload") -> None:
        super().__init__(
            f"server shed request ({reason}); retry in {retry_after:.3f}s"
        )
        self.retry_after = retry_after
        self.reason = reason


class DeadlineExceededError(ServerError):
    """The request's client-stamped deadline expired before completion.

    Raised server-side when expired work is shed at dequeue (before
    wasting a descent) and client-side when the response did not arrive
    within the deadline plus grace.
    """


class SessionError(ServerError):
    """Session/connection protocol misuse (e.g. a request before hello)."""


class RemoteOpError(ServerError):
    """A server-side exception, re-raised on the client with its kind.

    Mirrors :class:`WorkerFaultError` one layer up: ``kind`` preserves
    the original exception class name so callers can branch on the
    server-side error taxonomy without tracebacks crossing the wire.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def best_effort(fn, /, *args, only=(Exception,), **kwargs):
    """Run a cleanup/teardown step whose failure must not mask the
    real outcome; returns whether it succeeded.

    The canonical use is rollback-after-failure: the original
    exception is already propagating and a rollback that *also* fails
    (dead worker, closed socket, torn page mid-abort) has nothing
    better to report.  Pass ``only=(...)`` to swallow a narrower set —
    anything else still propagates, so a genuine bug in the cleanup
    path cannot hide behind it.  The ``swallowed-fault`` rule treats
    call sites of this helper as opted-in by construction; the
    ``except`` below is the one audited swallow.
    """
    try:
        fn(*args, **kwargs)
    except only:  # lint: allow(swallowed-fault): the helper's contract IS best-effort; failures return False for callers that count them
        return False
    return True
