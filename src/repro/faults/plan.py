"""The fault plan: a seeded, deterministic schedule of storage faults.

Four fault classes are modeled, matching the failure model of
DESIGN.md §9:

* **transient read** — the nth page read (optionally of one page) fails
  with :class:`~repro.errors.TransientIOError` for ``times`` consecutive
  attempts, then succeeds.  Exercises the buffer pool's bounded
  exponential retry.
* **permanent write** — from the nth page write on, every write to the
  faulted page fails with :class:`~repro.errors.DiskWriteError` until
  the plan is reset (``note_restart``, i.e. the disk was "replaced").
  Exercises dirty-state preservation and WAL-redo reconstruction.
* **torn write** — the nth page write persists a half-updated image
  (new first half, stale second half) while recording the checksum of
  the *intended* image, so a later read detects the tear.  Exercises
  checksum verification and log-replay page rebuild.
* **WAL tail loss / corruption** — applied at crash time: the last few
  durable-but-undepended-on log records are dropped, or one of them has
  its checksum flipped.  Exercises recovery's truncate-at-first-bad-
  record pass.

Scheduling is by *operation index*: the plan counts reads and writes
(globally and per page) and fires a spec when its 1-based ``op_index``
matches.  All counters live behind one small mutex — the plan is only
consulted on simulated-disk operations, never on the resident-pin hot
path.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from enum import Enum


class FaultKind(Enum):
    """The failure classes a plan can schedule."""

    TRANSIENT_READ = "transient_read"
    PERMANENT_WRITE = "permanent_write"
    TORN_WRITE = "torn_write"
    WAL_TAIL_LOSS = "wal_tail_loss"
    WAL_TAIL_CORRUPT = "wal_tail_corrupt"


#: Fault kinds consulted by the page store during normal operation.
STORAGE_KINDS = frozenset(
    {FaultKind.TRANSIENT_READ, FaultKind.PERMANENT_WRITE, FaultKind.TORN_WRITE}
)

#: Fault kinds applied to the log manager at crash time.
WAL_KINDS = frozenset({FaultKind.WAL_TAIL_LOSS, FaultKind.WAL_TAIL_CORRUPT})


@dataclass
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        Which failure class to inject.
    op_index:
        1-based index of the matching disk operation that triggers the
        fault — the nth read for ``TRANSIENT_READ``, the nth write for
        the write faults.  Counted per page when ``pid`` is set, across
        all pages otherwise.  For the WAL kinds this is instead how many
        tail records to affect (loss) or how far from the end to corrupt
        (0 = last record).
    pid:
        Restrict the fault to one page id (``None`` = any page).
    times:
        How many consecutive matching operations fail
        (``TRANSIENT_READ`` only; the others fire once / stick).
    """

    kind: FaultKind
    op_index: int = 1
    pid: int | None = None
    times: int = 1
    #: remaining fires (mutated by the plan under its lock)
    _remaining: int = field(default=-1, repr=False)
    #: True once the spec has started firing
    _armed: bool = field(default=True, repr=False)

    def describe(self) -> str:
        """One-line description for diagnostics."""
        target = "any page" if self.pid is None else f"page {self.pid}"
        return (
            f"{self.kind.value} @ op {self.op_index} on {target}"
            f" x{self.times}"
        )


class FaultPlan:
    """A deterministic fault schedule consulted by the storage layer.

    The plan is thread-safe but intentionally cheap: one small mutex
    guards the operation counters, taken only on simulated-disk reads
    and writes (which already pay a store mutex and optionally a real
    sleep).  Nothing here runs on the resident-pin hot path.
    """

    def __init__(self, specs: list[FaultSpec] | None = None) -> None:
        self._lock = threading.Lock()
        self.specs: list[FaultSpec] = list(specs or [])
        for spec in self.specs:
            if spec._remaining < 0:
                spec._remaining = spec.times
        #: human-readable log of every fault actually fired
        self.injected: list[str] = []
        #: pids whose writes now fail permanently (sticky faults)
        self._poisoned_writes: set[int] = set()
        self._reads_total = 0
        self._writes_total = 0
        self._reads_by_pid: dict[int, int] = {}
        self._writes_by_pid: dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        kinds: frozenset[FaultKind] | set[FaultKind] | None = None,
    ) -> "FaultPlan":
        """A deterministic random plan with one spec per requested kind.

        The same seed always yields the same plan; combined with a
        single-threaded workload this makes whole chaos trials
        bit-for-bit reproducible.
        """
        rng = random.Random(seed)
        kinds = set(kinds) if kinds is not None else set(FaultKind)
        specs: list[FaultSpec] = []
        if FaultKind.TRANSIENT_READ in kinds:
            specs.append(
                FaultSpec(
                    FaultKind.TRANSIENT_READ,
                    op_index=rng.randrange(2, 25),
                    times=rng.randrange(1, 4),
                )
            )
        if FaultKind.PERMANENT_WRITE in kinds:
            specs.append(
                FaultSpec(
                    FaultKind.PERMANENT_WRITE,
                    op_index=rng.randrange(3, 30),
                )
            )
        if FaultKind.TORN_WRITE in kinds:
            specs.append(
                FaultSpec(
                    FaultKind.TORN_WRITE,
                    op_index=rng.randrange(2, 25),
                )
            )
        if FaultKind.WAL_TAIL_LOSS in kinds:
            specs.append(
                FaultSpec(
                    FaultKind.WAL_TAIL_LOSS,
                    op_index=rng.randrange(1, 4),
                )
            )
        if FaultKind.WAL_TAIL_CORRUPT in kinds:
            specs.append(
                FaultSpec(
                    FaultKind.WAL_TAIL_CORRUPT,
                    op_index=rng.randrange(0, 3),
                )
            )
        return cls(specs)

    # ------------------------------------------------------------------
    # consultation (page store)
    # ------------------------------------------------------------------
    def on_read(self, pid: int) -> FaultKind | None:
        """Consult the plan for one page-read attempt.

        Returns ``FaultKind.TRANSIENT_READ`` when this attempt must
        fail, ``None`` otherwise.  Every attempt counts — a retried read
        is a new operation, which is how ``times=3`` makes three
        consecutive attempts fail.
        """
        with self._lock:
            self._reads_total += 1
            per_pid = self._reads_by_pid.get(pid, 0) + 1
            self._reads_by_pid[pid] = per_pid
            for spec in self.specs:
                if spec.kind is not FaultKind.TRANSIENT_READ:
                    continue
                if not spec._armed or spec._remaining <= 0:
                    continue
                if spec.pid is not None and spec.pid != pid:
                    continue
                count = per_pid if spec.pid is not None else self._reads_total
                if count >= spec.op_index:
                    spec._remaining -= 1
                    self.injected.append(
                        f"transient_read pid={pid} attempt={count}"
                    )
                    return FaultKind.TRANSIENT_READ
        return None

    def on_write(self, pid: int) -> FaultKind | None:
        """Consult the plan for one page write.

        Returns ``PERMANENT_WRITE`` when the write must fail,
        ``TORN_WRITE`` when the store must persist a torn image, and
        ``None`` for a clean write.
        """
        with self._lock:
            self._writes_total += 1
            per_pid = self._writes_by_pid.get(pid, 0) + 1
            self._writes_by_pid[pid] = per_pid
            if pid in self._poisoned_writes:
                self.injected.append(f"permanent_write pid={pid} (sticky)")
                return FaultKind.PERMANENT_WRITE
            for spec in self.specs:
                if not spec._armed:
                    continue
                if spec.pid is not None and spec.pid != pid:
                    continue
                count = per_pid if spec.pid is not None else self._writes_total
                if spec.kind is FaultKind.PERMANENT_WRITE:
                    if count >= spec.op_index:
                        # Disarm on first fire: the page that triggered
                        # the fault stays permanently unwritable (sticky
                        # via _poisoned_writes), but other pages keep
                        # writing cleanly — a single bad sector, not a
                        # whole-disk failure.
                        spec._armed = False
                        self._poisoned_writes.add(pid)
                        self.injected.append(
                            f"permanent_write pid={pid} write#{count}"
                        )
                        return FaultKind.PERMANENT_WRITE
                elif spec.kind is FaultKind.TORN_WRITE:
                    if spec._remaining > 0 and count >= spec.op_index:
                        spec._remaining -= 1
                        self.injected.append(
                            f"torn_write pid={pid} write#{count}"
                        )
                        return FaultKind.TORN_WRITE
        return None

    # ------------------------------------------------------------------
    # crash-time WAL faults
    # ------------------------------------------------------------------
    def wal_tail_actions(self) -> tuple[int, int | None]:
        """``(loss_count, corrupt_back_index)`` for crash time.

        ``loss_count`` is how many tail records to drop (0 = none);
        ``corrupt_back_index`` is the offset from the log end of the
        record whose checksum to flip (``None`` = no corruption).  Each
        WAL spec fires once — a restarted database that crashes again
        does not re-lose its tail.
        """
        loss = 0
        corrupt: int | None = None
        with self._lock:
            for spec in self.specs:
                if not spec._armed:
                    continue
                if spec.kind is FaultKind.WAL_TAIL_LOSS:
                    loss = max(loss, spec.op_index)
                    spec._armed = False
                    self.injected.append(f"wal_tail_loss n={spec.op_index}")
                elif spec.kind is FaultKind.WAL_TAIL_CORRUPT:
                    corrupt = spec.op_index
                    spec._armed = False
                    self.injected.append(
                        f"wal_tail_corrupt back={spec.op_index}"
                    )
        return loss, corrupt

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def note_restart(self) -> None:
        """Deactivate storage faults: restart runs on repaired hardware.

        Damage already done (torn images on disk, lost tail records)
        persists as *state*; only future injections stop.  This keeps
        restart recovery itself deterministic and lets a poisoned page
        finally be rewritten by redo.
        """
        with self._lock:
            self._poisoned_writes.clear()
            for spec in self.specs:
                if spec.kind in STORAGE_KINDS:
                    spec._armed = False

    def note_skipped(self, message: str) -> None:
        """Record that a fired fault turned out to be a no-op."""
        with self._lock:
            self.injected.append(f"skipped: {message}")
