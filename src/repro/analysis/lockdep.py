"""Runtime lock-order witness ("lockdep") for the latch/lock/WAL rules.

The paper's deadlock-freedom argument (§3, fn. 8) is *conditional*:
latches carry no deadlock detection, so the implementation must never
hold a latch across an I/O or across a lock wait, and must acquire
latches in a consistent global order.  None of that is visible in a
passing test run — an ABBA inversion deadlocks only under the right
interleaving, and a WAL-rule violation only corrupts state if the
crash lands in the window.  This module witnesses the *potential*
violation at the moment the ordering occurs, the same way the kernel's
lockdep proves a deadlock possible without ever hanging.

Design constraints:

* **Leaf lock.**  ``note_*`` methods are called while the caller holds
  latch condition variables, the buffer-pool mutex or the lock-manager
  mutex.  The witness therefore takes exactly one internal mutex and
  never calls back out, so it can never participate in a cycle itself.
* **Zero overhead when off.**  Nothing in the hot path touches this
  module unless a witness was attached (``Database(protocol_checks=
  True)``); the gating pattern mirrors the fault cleanup of
  ``repro.gist.stats.OpEnvelope`` and is
  counter-asserted in ``tests/storage/test_buffer.py``.
* **Hard vs. warn.**  ``latch-lock-wait`` and ``wal-rule`` are *hard*
  violations: the shipped tree must never produce one (record locks
  are only ever probed no-wait under a latch, and the WAL rule is
  load-bearing for recovery).  ``latch-io`` and ``lock-order-cycle``
  are recorded as *warnings*: the pool intentionally performs miss
  reads and eviction writebacks while a caller holds a tree latch
  (the paper's Figure 4 does the same during SMOs), and cycle reports
  need human triage before they gate CI.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

#: resource-key kinds, in rough global acquisition order
KIND_LATCH = "latch"
KIND_POOL = "pool"
KIND_LOCK = "lock"

#: rules recorded as hard violations (``violations``); everything else
#: lands in ``warnings``
HARD_RULES = frozenset({"latch-lock-wait", "wal-rule"})

_registry: weakref.WeakSet[LockdepWitness] = weakref.WeakSet()
_registry_mutex = threading.Lock()


@dataclass(frozen=True)
class ProtocolViolation:
    """One witnessed protocol violation (or warning)."""

    rule: str
    detail: str
    thread: int
    held: tuple[tuple[str, object], ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        held = ", ".join(f"{k}:{n}" for k, n in self.held)
        suffix = f" [held: {held}]" if held else ""
        return f"{self.rule}: {self.detail}{suffix}"


@dataclass
class ProtocolReport:
    """Snapshot of everything a witness has seen."""

    violations: list[ProtocolViolation] = field(default_factory=list)
    warnings: list[ProtocolViolation] = field(default_factory=list)
    cycles: list[tuple[tuple[str, object], ...]] = field(
        default_factory=list
    )
    edges: int = 0
    acquisitions: int = 0
    io_events: int = 0
    leaked_latches: dict[int, list[tuple[str, object]]] = field(
        default_factory=dict
    )
    leaked_pins: dict[int, list[object]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class LockdepWitness:
    """Acquisition-graph witness over latches, the pool mutex and locks.

    Resources are keyed ``(kind, name)``: SXLatches by page id /
    explicit name, the buffer-pool mutex as ``("pool", "mutex")``,
    lock-manager queues by lock name (waits only — transactional locks have their
    own deadlock detector; they matter here only when a *latch* is
    held across the wait).

    Per-thread held stacks feed a global directed edge set
    ``held -> acquired``; a cycle in that graph is a potential ABBA
    deadlock even if no run ever blocks on it.  Cycle search runs only
    when a previously-unseen edge appears, so steady-state overhead is
    one dict lookup per acquisition.
    """

    def __init__(self, flushed_lsn=None, flightrec=None) -> None:
        #: callable returning the WAL's flushed LSN, for the WAL-rule
        #: check on page writes; queried *before* taking the witness
        #: mutex so the log can use its own locking freely
        self.flushed_lsn = flushed_lsn
        #: optional :class:`repro.obs.flightrec.FlightRecorder`; hard
        #: violations are recorded as black-box events (the recorder is
        #: itself a leaf — it takes only its own ring lock — so calling
        #: it under the witness mutex cannot deadlock)
        self.flightrec = flightrec
        self._mutex = threading.Lock()
        self._held: dict[int, list[tuple[str, object]]] = {}
        self._pins: dict[int, list[object]] = {}
        self._edges: dict[tuple[str, object], set[tuple[str, object]]] = {}
        self._edge_cache: set[
            tuple[tuple[str, object], tuple[str, object]]
        ] = set()
        self._cycles: list[tuple[tuple[str, object], ...]] = []
        self._cycle_keys: set[frozenset] = set()
        self._violations: list[ProtocolViolation] = []
        self._warnings: list[ProtocolViolation] = []
        self._seen_rules: set[tuple] = set()
        self._acquisitions = 0
        self._io_events = 0
        self._drained = 0
        with _registry_mutex:
            _registry.add(self)

    # ------------------------------------------------------------------
    # acquisition graph

    def note_acquired(self, kind: str, name: object) -> None:
        """A latch or the pool mutex was granted to the calling thread."""
        tid = threading.get_ident()
        key = (kind, name)
        with self._mutex:
            self._acquisitions += 1
            stack = self._held.setdefault(tid, [])
            if stack:
                self._add_edge(stack[-1], key)
            stack.append(key)

    def note_released(self, kind: str, name: object) -> None:
        """The calling thread released a latch or the pool mutex."""
        tid = threading.get_ident()
        key = (kind, name)
        with self._mutex:
            stack = self._held.get(tid)
            if stack and key in stack:
                # out-of-order release is legal (hand-over-hand
                # coupling releases the parent first)
                stack.remove(key)
                if not stack:
                    del self._held[tid]

    def _add_edge(
        self, src: tuple[str, object], dst: tuple[str, object]
    ) -> None:
        """Record ``src -> dst``; run cycle search on new edges only."""
        if src == dst or (src, dst) in self._edge_cache:
            return
        self._edge_cache.add((src, dst))
        self._edges.setdefault(src, set()).add(dst)
        cycle = self._find_cycle(dst, src)
        if cycle is not None:
            key = frozenset(cycle)
            if key not in self._cycle_keys:
                self._cycle_keys.add(key)
                self._cycles.append(tuple(cycle))
                self._warn(
                    "lock-order-cycle",
                    "potential deadlock: acquisition order cycle "
                    + " -> ".join(f"{k}:{n}" for k, n in cycle),
                )

    def _find_cycle(
        self, start: tuple[str, object], goal: tuple[str, object]
    ) -> list[tuple[str, object]] | None:
        """DFS for a path ``start -> goal`` (closing the new edge)."""
        path: list[tuple[str, object]] = [start]
        seen = {start}
        stack = [iter(self._edges.get(start, ()))]
        while stack:
            try:
                node = next(stack[-1])
            except StopIteration:
                stack.pop()
                path.pop()
                continue
            if node == goal:
                return [goal, *path]
            if node in seen:
                continue
            seen.add(node)
            path.append(node)
            stack.append(iter(self._edges.get(node, ())))
        return None

    # ------------------------------------------------------------------
    # rule checks

    def note_io(
        self, op: str, pid: object, page_lsn: int | None = None
    ) -> None:
        """A ``PageStore`` read/write (or injected stall) is starting.

        Checks two rules: *latch-io* (warning — no latch should be
        held across an I/O) and, for writes, the *WAL rule* (hard —
        the log must be flushed through ``page_lsn`` before the page
        image reaches disk).
        """
        flushed = None
        if op == "write" and page_lsn and self.flushed_lsn is not None:
            # query the log outside the witness mutex: the provider may
            # take the log's own mutex and must stay deadlock-free
            flushed = self.flushed_lsn()
        tid = threading.get_ident()
        with self._mutex:
            self._io_events += 1
            held = tuple(self._held.get(tid, ()))
            if held:
                self._warn(
                    "latch-io",
                    f"{op}({pid}) issued while holding a latch",
                    held=held,
                )
            if flushed is not None and page_lsn > flushed:
                self._violate(
                    "wal-rule",
                    f"write({pid}) persists page_lsn={page_lsn} but the "
                    f"log is only flushed through {flushed}",
                )

    def note_lock_wait(self, name: object) -> None:
        """The calling thread is about to block on a transactional lock."""
        tid = threading.get_ident()
        with self._mutex:
            held = tuple(self._held.get(tid, ()))
            if held:
                self._violate(
                    "latch-lock-wait",
                    f"blocking lock wait on {name!r} while holding a "
                    "latch (paper §3 fn. 8: latches must never be held "
                    "across a lock wait)",
                    held=held,
                )
                self._add_edge(held[-1], (KIND_LOCK, name))

    # ------------------------------------------------------------------
    # pin ledger (leak reporting only — imbalance is not a violation
    # until the thread exits the operation still holding pins)

    def note_pinned(self, pid: object) -> None:
        tid = threading.get_ident()
        with self._mutex:
            self._pins.setdefault(tid, []).append(pid)

    def note_unpinned(self, pid: object) -> None:
        tid = threading.get_ident()
        with self._mutex:
            pins = self._pins.get(tid)
            if pins and pid in pins:
                pins.remove(pid)
                if not pins:
                    del self._pins[tid]

    # ------------------------------------------------------------------
    # reporting

    def _violate(self, rule: str, detail: str, held=()) -> None:
        dedup = (rule, detail)
        if dedup in self._seen_rules:
            return
        self._seen_rules.add(dedup)
        self._violations.append(
            ProtocolViolation(rule, detail, threading.get_ident(), held)
        )
        if self.flightrec is not None:
            self.flightrec.record(
                "lockdep.violation", rule=rule, detail=detail
            )

    def _warn(self, rule: str, detail: str, held=()) -> None:
        dedup = (rule, detail)
        if dedup in self._seen_rules:
            return
        self._seen_rules.add(dedup)
        self._warnings.append(
            ProtocolViolation(rule, detail, threading.get_ident(), held)
        )

    @property
    def violations(self) -> list[ProtocolViolation]:
        with self._mutex:
            return list(self._violations)

    @property
    def warnings(self) -> list[ProtocolViolation]:
        with self._mutex:
            return list(self._warnings)

    @property
    def cycles(self) -> list[tuple[tuple[str, object], ...]]:
        with self._mutex:
            return list(self._cycles)

    def report(self) -> ProtocolReport:
        with self._mutex:
            return ProtocolReport(
                violations=list(self._violations),
                warnings=list(self._warnings),
                cycles=list(self._cycles),
                edges=len(self._edge_cache),
                acquisitions=self._acquisitions,
                io_events=self._io_events,
                leaked_latches={
                    tid: list(stack)
                    for tid, stack in self._held.items()
                    if stack
                },
                leaked_pins={
                    tid: list(pins)
                    for tid, pins in self._pins.items()
                    if pins
                },
            )

    def drain_new(self) -> list[ProtocolViolation]:
        """Hard violations recorded since the last drain (test gating)."""
        with self._mutex:
            fresh = self._violations[self._drained :]
            self._drained = len(self._violations)
            return list(fresh)


def all_witnesses() -> list[LockdepWitness]:
    """Every live witness (weakly registered at construction)."""
    with _registry_mutex:
        return list(_registry)


def drain_new_violations() -> list[ProtocolViolation]:
    """Drain fresh hard violations across all live witnesses.

    Used by the test-suite conftest when ``REPRO_PROTOCOL_CHECKS`` is
    set: any hard violation recorded during a test fails that test.
    """
    fresh: list[ProtocolViolation] = []
    for witness in all_witnesses():
        fresh.extend(witness.drain_new())
    return fresh
