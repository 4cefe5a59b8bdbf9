"""Buffer pool with pinning, per-frame latches and WAL enforcement.

The buffer pool is the substrate that makes the paper's latch protocol
meaningful: tree nodes are latched *through* their buffer frames, pages
are fetched from the simulated disk on miss (paying I/O latency **without
any tree latch held**, per the protocol), and dirty pages are written back
under the write-ahead-logging rule — the log is flushed up to the page's
LSN before the page image reaches disk.

The frame table is hash-partitioned into ``shards`` independent shards,
each with its own mutex, frame map, load/writeback coalescing events and
clock hand, so concurrent pins of *different* pages never contend on a
shared lock.  A pin of a resident page touches exactly one lock: its own
shard's (``tests/storage/test_buffer_shards.py`` asserts this via the
per-shard acquisition counters).  Capacity stays a *global* budget,
tracked by a dedicated counter lock that the resident-hit path never
takes; eviction sweeps shards round-robin starting from the shard that
needs the slot.  Victim selection within a shard is an amortized
second-chance clock rather than a full scan, so eviction cost no longer
grows with pool capacity.

Crash simulation (:meth:`BufferPool.crash`) simply discards every frame:
whatever the WAL rule forced to disk is all that survives, which is
exactly the state restart recovery (section 9) must cope with.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter_ns, sleep
from typing import Callable, Iterator

from repro.errors import BufferPoolError, TornPageError, TransientIOError
from repro.obs.metrics import LatchTimer, MetricsRegistry
from repro.storage.disk import PageStore
from repro.storage.page import Page, PageId, PageKind
from repro.sync.latch import LatchMode, SXLatch


class Frame:
    """A buffer frame: one cached page plus its pin count and latch."""

    __slots__ = ("page", "pin_count", "dirty", "rec_lsn", "latch", "ref")

    def __init__(
        self,
        page: Page,
        latch_timer: object = None,
        witness: object = None,
        tracker: object = None,
    ) -> None:
        self.page = page
        self.pin_count = 0
        self.dirty = False
        #: LSN of the record that first dirtied this page since its last
        #: flush — the recLSN that goes into the dirty page table.
        self.rec_lsn: int | None = None
        self.latch = SXLatch(
            name=page.pid, timer=latch_timer, witness=witness,
            tracker=tracker,
        )
        #: second-chance reference bit, owned by the frame's shard.
        self.ref = False

    def mark_dirty(self, lsn: int, first_lsn: int | None = None) -> None:
        """Record that log records ``first_lsn``..``lsn`` (default: the
        one record ``lsn``) modified this page.

        The caller holds the frame's X latch and has held it since
        before it appended the first of them: that is what lets
        :meth:`BufferPool.dirty_page_table` trust what it reads here.
        """
        if not self.dirty:
            self.dirty = True
            self.rec_lsn = lsn if first_lsn is None else first_lsn
        self.page.page_lsn = max(self.page.page_lsn, lsn)


class _Shard:
    """One partition of the frame table.

    Every field is protected by ``lock`` — including the plain-int
    counters, whose mutation-only-under-the-shard-lock invariant is what
    keeps them exact without atomics (asserted by
    tests/storage/test_buffer.py::test_counters_updated_under_pool_lock
    and the shard-sum test in tests/storage/test_buffer_shards.py).
    ``lock_acquisitions`` counts every acquisition of ``lock``; the
    hot-path benchmark uses it to prove a resident pin touches only its
    own shard.
    """

    __slots__ = (
        "index",
        "lock",
        "frames",
        "loading",
        "writeback",
        "ring",
        "hand",
        "hits",
        "misses",
        "evictions",
        "lock_acquisitions",
    )

    def __init__(self, index: int = 0) -> None:
        #: stable shard number, used as the lockdep resource key
        self.index = index
        self.lock = threading.Lock()
        self.frames: dict[PageId, Frame] = {}
        self.loading: dict[PageId, threading.Event] = {}
        self.writeback: dict[PageId, threading.Event] = {}
        #: clock ring of page ids, swept by ``hand``.  Slots go stale
        #: when their page is evicted or dropped and are reaped lazily.
        self.ring: list[PageId] = []
        self.hand = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.lock_acquisitions = 0

    # -- all methods below are called with ``self.lock`` held ----------
    def insert(self, frame: Frame) -> None:
        pid = frame.page.pid
        self.frames[pid] = frame
        frame.ref = True
        self.ring.append(pid)
        if len(self.ring) > 2 * len(self.frames) + 8:
            self._compact_ring()

    def _compact_ring(self) -> None:
        """Drop stale/duplicate ring slots, preserving clock order."""
        seen: set[PageId] = set()
        fresh: list[PageId] = []
        hand = min(self.hand, len(self.ring))
        for pid in self.ring[hand:] + self.ring[:hand]:
            if pid in self.frames and pid not in seen:
                seen.add(pid)
                fresh.append(pid)
        self.ring = fresh
        self.hand = 0

    def pick_victim(self) -> tuple[PageId, Frame] | None:
        """Advance the second-chance clock to an evictable frame.

        Amortized O(1): each sweep step either reaps a stale slot or
        spends a frame's reference bit; at most two full passes run
        before giving up (everything pinned or latched).
        """
        ring = self.ring
        examined = 0
        limit = 2 * len(ring)
        while ring and examined <= limit:
            if self.hand >= len(ring):
                self.hand = 0
            pid = ring[self.hand]
            frame = self.frames.get(pid)
            if frame is None:
                ring.pop(self.hand)  # stale: evicted or dropped earlier
                continue
            examined += 1
            if frame.pin_count == 0 and not frame.latch.holders():
                if frame.ref:
                    frame.ref = False
                    self.hand += 1
                else:
                    ring.pop(self.hand)
                    return pid, frame
            else:
                self.hand += 1
        return None


class BufferPool:
    """A fixed-capacity page cache over a :class:`PageStore`.

    Parameters
    ----------
    store:
        The backing page store.
    capacity:
        Maximum number of resident frames, pool-wide (shards share one
        budget).  Must comfortably exceed the largest working set a
        single operation pins at once — a recursive split cascade
        latches roughly two frames per tree level — so a few dozen
        frames is the practical floor for deep trees (the pool raises
        :class:`BufferPoolError` rather than deadlocking when it cannot
        make room).
    wal_flush:
        Callable invoked as ``wal_flush(lsn)`` before any dirty page with
        ``page_lsn == lsn`` is written to disk.  Wired to
        ``LogManager.flush`` by the database assembly; defaults to a no-op
        so the pool is usable stand-alone.
    metrics:
        Metrics registry to report into (``buffer.*`` counters and
        gauges, ``latch.*`` timing shared by every frame latch).  A
        private registry is created when omitted, so the pool is fully
        instrumented stand-alone too.
    shards:
        Number of hash partitions of the frame table; 1 degenerates
        to a single-mutex pool.
    io_retries:
        How many times a page read that failed with
        :class:`~repro.errors.TransientIOError` is retried before the
        error surfaces.
    io_retry_backoff:
        Base delay of the bounded exponential backoff between read
        retries, in seconds (doubles per attempt, capped at
        :data:`MAX_RETRY_BACKOFF`).  ``0.0`` retries immediately —
        what deterministic tests and chaos trials use.
    """

    #: ceiling on any single retry backoff sleep (seconds)
    MAX_RETRY_BACKOFF = 0.05

    def __init__(
        self,
        store: PageStore,
        capacity: int = 1024,
        wal_flush: Callable[[int], None] | None = None,
        metrics: MetricsRegistry | None = None,
        shards: int = 8,
        io_retries: int = 4,
        io_retry_backoff: float = 0.001,
    ) -> None:
        if capacity < 1:
            raise BufferPoolError("buffer pool capacity must be >= 1")
        if shards < 1:
            raise BufferPoolError("buffer pool shard count must be >= 1")
        self.store = store
        self.capacity = capacity
        self.wal_flush = wal_flush or (lambda lsn: None)
        self.io_retries = io_retries
        self.io_retry_backoff = io_retry_backoff
        #: callable rebuilding a page image from the WAL (wired by the
        #: database assembly); enables torn-page self-healing on fix
        self.page_rebuilder: Callable[[PageId], Page | None] | None = None
        self._shards = [_Shard(i) for i in range(shards)]
        self._n_shards = shards
        # Global capacity budget.  ``_cap_lock`` is never held together
        # with a shard lock, and the resident-hit pin path never touches
        # it — only slot reservation (miss/new/adopt) and eviction do.
        self._cap_lock = threading.Lock()
        self._n_resident = 0
        self.metrics = metrics or MetricsRegistry()
        self._h_read_ns = self.metrics.histogram("buffer.io_read_ns")
        self._h_write_ns = self.metrics.histogram("buffer.io_write_ns")
        # Fault-handling counters, created once here: with no faults in
        # play none of them is ever incremented, and the resident-pin
        # hot path does not touch them at all.
        self._c_io_retries = self.metrics.counter("storage.io_retries")
        self._c_torn_detected = self.metrics.counter(
            "storage.torn_pages_detected"
        )
        self._c_torn_healed = self.metrics.counter(
            "storage.torn_pages_healed"
        )
        self._c_write_faults = self.metrics.counter("storage.write_faults")
        # Per-thread pin ledger, maintained only while a fault plan is
        # installed: when a typed storage fault unwinds a tree operation
        # mid-descent, :meth:`release_thread_fixes` uses it to drop the
        # pins (and latches) the aborted operation leaked.  With faults
        # disabled the ledger is never touched — the resident-pin hot
        # path pays one predictable branch and nothing else.
        self._track_fixes = store.fault_plan is not None
        self._fix_local = threading.local()
        # Lockdep witness (Database(protocol_checks=True)).  ``None`` —
        # the default — keeps pin/unpin and the shard mutexes entirely
        # free of witness calls, same gating idea as ``_track_fixes``;
        # bench_hotpath counter-asserts the off state.
        self._witness = None
        # Span tracker (Database(op_tracing=True)): pins and I/O are
        # attributed to the calling thread's operation span.  Same
        # gating pattern — ``None`` keeps the hot paths span-free.
        self._tracker = None
        self._latch_timer = (
            LatchTimer(self.metrics) if self.metrics.enabled else None
        )
        # Aggregate gauges keep their pre-sharding names; per-shard
        # breakdowns live under ``buffer.shard.*``.  All are evaluated
        # only at snapshot time — a pin costs zero registry calls.
        self.metrics.gauge("buffer.hits", lambda: self.hits)
        self.metrics.gauge("buffer.misses", lambda: self.misses)
        self.metrics.gauge("buffer.evictions", lambda: self.evictions)
        self.metrics.gauge(
            "buffer.resident",
            lambda: sum(len(s.frames) for s in self._shards),
        )
        self.metrics.gauge("buffer.dirty", self.dirty_count)
        self.metrics.gauge("buffer.hit_rate", self._hit_rate)
        self.metrics.gauge("buffer.shard.count", lambda: self._n_shards)
        for idx, shard in enumerate(self._shards):
            self.metrics.gauge(
                f"buffer.shard.{idx}.hits", lambda s=shard: s.hits
            )
            self.metrics.gauge(
                f"buffer.shard.{idx}.misses", lambda s=shard: s.misses
            )
            self.metrics.gauge(
                f"buffer.shard.{idx}.evictions", lambda s=shard: s.evictions
            )
            self.metrics.gauge(
                f"buffer.shard.{idx}.resident", lambda s=shard: len(s.frames)
            )
            self.metrics.gauge(
                f"buffer.shard.{idx}.lock_acquisitions",
                lambda s=shard: s.lock_acquisitions,
            )

    def attach_witness(self, witness) -> None:
        """Install (or clear, with ``None``) a lockdep witness.

        Future frames inherit it through their latches; already-resident
        frames are swept so restarts with ``protocol_checks`` toggled
        behave uniformly.
        """
        self._witness = witness
        for shard in self._shards:
            with self._locked(shard):
                for frame in shard.frames.values():
                    frame.latch.witness = witness

    def attach_span_tracker(self, tracker) -> None:
        """Install (or clear, with ``None``) a span tracker.

        Future frames inherit it through their latches; already-resident
        frames are swept so restarts with ``op_tracing`` toggled behave
        uniformly (mirrors :meth:`attach_witness`).
        """
        self._tracker = tracker
        for shard in self._shards:
            with self._locked(shard):
                for frame in shard.frames.values():
                    frame.latch.tracker = tracker

    # ------------------------------------------------------------------
    # sharding helpers
    # ------------------------------------------------------------------
    def shard_of(self, pid: PageId) -> int:
        """Index of the shard responsible for ``pid``."""
        return pid % self._n_shards

    def _shard(self, pid: PageId) -> _Shard:
        return self._shards[pid % self._n_shards]

    @contextmanager
    def _locked(self, shard: _Shard) -> Iterator[None]:
        """Acquire a shard's mutex, counting the acquisition.

        ``_pin`` and ``unpin`` — two acquisitions per page fix — take
        ``shard.lock`` directly with the same bookkeeping instead of
        paying for a generator context manager each time.
        """
        with shard.lock:
            shard.lock_acquisitions += 1
            witness = self._witness
            if witness is None:
                yield
            else:
                witness.note_acquired("shard", shard.index)
                try:
                    yield
                finally:
                    witness.note_released("shard", shard.index)

    def shard_metrics(self) -> list[dict[str, int]]:
        """Per-shard counter snapshot (tests and the hotpath bench)."""
        out = []
        for shard in self._shards:
            with self._locked(shard):
                out.append(
                    {
                        "hits": shard.hits,
                        "misses": shard.misses,
                        "evictions": shard.evictions,
                        "resident": len(shard.frames),
                        "lock_acquisitions": shard.lock_acquisitions,
                    }
                )
        return out

    # ------------------------------------------------------------------
    # backward-compatible counter views
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        """Pin requests satisfied from a resident frame (all shards)."""
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        """Pin requests that had to read the page from disk (all shards)."""
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        """Frames evicted to make room (all shards)."""
        return sum(s.evictions for s in self._shards)

    def _hit_rate(self) -> float:
        hits, misses = self.hits, self.misses
        total = hits + misses
        return round(hits / total, 4) if total else 0.0

    # ------------------------------------------------------------------
    # capacity budget
    # ------------------------------------------------------------------
    def _reserve_slot(self, home: int) -> None:
        """Claim one resident-frame slot, evicting if the pool is full.

        Eviction sweeps shards round-robin starting at ``home`` so the
        shard that needs the slot preferentially recycles its own
        frames.  Raises :class:`BufferPoolError` when a full sweep finds
        every frame pinned or latched.
        """
        while True:
            with self._cap_lock:
                if self._n_resident < self.capacity:
                    self._n_resident += 1
                    return
            if not self._evict_one(home):
                raise BufferPoolError(
                    "buffer pool full and every frame is pinned"
                )

    def _release_slot(self) -> None:
        with self._cap_lock:
            self._n_resident -= 1

    def _evict_one(self, home: int) -> bool:
        """Evict one frame from the first shard that has a victim."""
        for step in range(self._n_shards):
            shard = self._shards[(home + step) % self._n_shards]
            event: threading.Event | None = None
            snapshot: Page | None = None
            with self._locked(shard):
                victim = shard.pick_victim()
                if victim is None:
                    continue
                pid, frame = victim
                del shard.frames[pid]
                shard.evictions += 1
                if frame.dirty:
                    # Publish the writeback before releasing the shard
                    # lock so a concurrent pin of this pid waits for the
                    # disk image instead of reading a stale one.
                    event = threading.Event()
                    shard.writeback[pid] = event
                    snapshot = frame.page.snapshot()
            if event is not None and snapshot is not None:
                write_ok = False
                try:
                    self.wal_flush(snapshot.page_lsn)
                    t0 = perf_counter_ns()
                    self.store.write(snapshot)
                    dur = perf_counter_ns() - t0
                    self._h_write_ns.record(dur)
                    if self._tracker is not None:
                        self._tracker.add_io(dur)
                    write_ok = True
                finally:
                    with self._locked(shard):
                        shard.writeback.pop(pid, None)
                        if not write_ok:
                            # The writeback failed: reinstall the (still
                            # dirty) frame so the only copy of the page
                            # is never lost; the typed error propagates.
                            self._c_write_faults.inc()
                            shard.evictions -= 1
                            shard.insert(frame)
                    event.set()
            self._release_slot()
            return True
        return False

    # ------------------------------------------------------------------
    # pin / unpin
    # ------------------------------------------------------------------
    def pin(self, pid: PageId) -> Frame:
        """Pin ``pid``, fetching it from disk on a miss.

        The disk read (the slow part) happens with **no pool lock and no
        latch held**; concurrent pinners of the same page coalesce onto a
        single read.  A hit on a resident page acquires exactly one
        lock: the page's own shard mutex.
        """
        frame = self._pin(pid)
        if self._track_fixes:
            self._ledger().append(frame)
        if self._witness is not None:
            self._witness.note_pinned(pid)
        if self._tracker is not None:
            self._tracker.note_fix()
        return frame

    def _ledger(self) -> list:
        """This thread's list of pinned frames (fault-plan runs only)."""
        try:
            return self._fix_local.frames
        except AttributeError:
            frames: list[Frame] = []
            self._fix_local.frames = frames
            return frames

    def release_thread_fixes(self) -> int:
        """Drop every pin and latch this thread still holds.

        The cleanup net for injected storage faults: a typed fault
        raised from a page fix unwinds the tree operation mid-descent,
        past frames it still has pinned and latched.  Left in place,
        those holdings would self-deadlock the thread's next operation
        (latch re-acquisition) and make frames unevictable.  Tree entry
        points call this when a :class:`~repro.errors.StorageFaultError`
        escapes; it is a no-op unless a fault plan is installed.

        Returns the number of pins/latches released.
        """
        if not self._track_fixes:
            return 0
        released = 0
        ledger = getattr(self._fix_local, "frames", None)
        while ledger:
            frame = ledger.pop()
            pid = frame.page.pid
            try:
                if frame.latch.held_by_me():
                    frame.latch.release()
                shard = self._shard(pid)
                with self._locked(shard):
                    if (
                        shard.frames.get(pid) is frame
                        and frame.pin_count > 0
                    ):
                        frame.pin_count -= 1
                        if self._witness is not None:
                            self._witness.note_unpinned(pid)
                released += 1
            except Exception:  # pragma: no cover - best-effort cleanup
                # the fault-unwind sweep must keep releasing the
                # remaining fixes even if one release fails
                continue  # lint: allow(swallowed-fault): best-effort sweep
        # Frames installed via adopt() are latched directly without a
        # tracked pin (split construction); sweep any latch left held.
        for shard in self._shards:
            with self._locked(shard):
                frames = list(shard.frames.values())
            for frame in frames:
                try:
                    while frame.latch.held_by_me():
                        frame.latch.release()
                        released += 1
                except Exception:  # pragma: no cover - best-effort
                    break  # lint: allow(swallowed-fault): best-effort sweep
        return released

    def _pin(self, pid: PageId) -> Frame:
        shard = self._shard(pid)
        while True:
            wait_for: threading.Event | None = None
            with shard.lock:  # self._locked(shard), inlined
                shard.lock_acquisitions += 1
                witness = self._witness
                if witness is not None:
                    witness.note_acquired("shard", shard.index)
                try:
                    frame = shard.frames.get(pid)
                    if frame is not None:
                        frame.pin_count += 1
                        frame.ref = True
                        shard.hits += 1
                        return frame
                    if pid in shard.writeback:
                        wait_for = shard.writeback[pid]
                    elif pid in shard.loading:
                        wait_for = shard.loading[pid]
                    else:
                        event = threading.Event()
                        shard.loading[pid] = event
                        shard.misses += 1
                finally:
                    if witness is not None:
                        witness.note_released("shard", shard.index)
            if wait_for is not None:
                wait_for.wait()
                continue
            # We own the load for this pid.
            try:
                page = self._read_page(pid)
                frame = Frame(
                    page, self._latch_timer, self._witness, self._tracker
                )
                frame.pin_count = 1
                self._reserve_slot(self.shard_of(pid))
                with self._locked(shard):
                    shard.insert(frame)
                return frame
            finally:
                with self._locked(shard):
                    event = shard.loading.pop(pid, None)
                if event is not None:
                    event.set()

    def _read_page(self, pid: PageId) -> Page:
        """``store.read`` with transient-fault retry and torn-page heal.

        Transient read errors are retried up to ``io_retries`` times
        with bounded exponential backoff.  A checksum mismatch (torn
        page) is healed when the database wired a ``page_rebuilder``:
        the image is reconstructed by WAL replay and re-persisted, so
        the next reader finds a clean page.  Either error surfaces
        typed when it cannot be absorbed — never silent corruption.
        """
        attempt = 0
        while True:
            try:
                t0 = perf_counter_ns()
                page = self.store.read(pid)
                dur = perf_counter_ns() - t0
                self._h_read_ns.record(dur)
                if self._tracker is not None:
                    self._tracker.add_io(dur)
                return page
            except TransientIOError:
                attempt += 1
                if attempt > self.io_retries:
                    raise
                self._c_io_retries.inc()
                delay = min(
                    self.io_retry_backoff * (2 ** (attempt - 1)),
                    self.MAX_RETRY_BACKOFF,
                )
                if delay > 0.0:
                    sleep(delay)
            except TornPageError:
                self._c_torn_detected.inc()
                if self.page_rebuilder is None:
                    raise
                page = self.page_rebuilder(pid)
                if page is None:
                    raise
                self.store.write(page)  # persist the healed image
                self._c_torn_healed.inc()
                return page

    def unpin(self, pid: PageId) -> None:
        """Drop one pin on ``pid``."""
        shard = self._shard(pid)
        with shard.lock:  # self._locked(shard), inlined
            shard.lock_acquisitions += 1
            witness = self._witness
            if witness is not None:
                witness.note_acquired("shard", shard.index)
            try:
                frame = shard.frames.get(pid)
                if frame is None or frame.pin_count <= 0:
                    raise BufferPoolError(
                        f"unpin of page {pid} that is not pinned"
                    )
                frame.pin_count -= 1
            finally:
                if witness is not None:
                    witness.note_released("shard", shard.index)
        if witness is not None:
            witness.note_unpinned(pid)
        if self._track_fixes:
            ledger = getattr(self._fix_local, "frames", None)
            if ledger is not None:
                for i in range(len(ledger) - 1, -1, -1):
                    if ledger[i] is frame:
                        del ledger[i]
                        break

    def new_frame(self, kind: PageKind, level: int = 0) -> Frame:
        """Allocate a brand-new page and return its frame, pinned once."""
        page = self.store.new_page(kind, level)
        frame = Frame(
            page, self._latch_timer, self._witness, self._tracker
        )
        frame.pin_count = 1
        shard = self._shard(page.pid)
        self._reserve_slot(self.shard_of(page.pid))
        with self._locked(shard):
            shard.insert(frame)
        if self._track_fixes:
            self._ledger().append(frame)
        if self._witness is not None:
            self._witness.note_pinned(page.pid)
        if self._tracker is not None:
            self._tracker.note_fix()
        return frame

    def adopt(self, page: Page) -> Frame:
        """Install an externally built page image (recovery redo path)."""
        frame = Frame(
            page, self._latch_timer, self._witness, self._tracker
        )
        shard = self._shard(page.pid)
        with self._locked(shard):
            if page.pid in shard.frames:
                raise BufferPoolError(f"page {page.pid} already resident")
        self._reserve_slot(self.shard_of(page.pid))
        with self._locked(shard):
            if page.pid in shard.frames:
                self._release_slot()
                raise BufferPoolError(f"page {page.pid} already resident")
            shard.insert(frame)
        return frame

    # ------------------------------------------------------------------
    # fix/unfix: pin + latch as one operation
    # ------------------------------------------------------------------
    def fix(self, pid: PageId, mode: LatchMode) -> Frame:
        """Pin *and latch* the page.  Pair with :meth:`unfix`."""
        frame = self.pin(pid)
        try:
            frame.latch.acquire(mode)
        except BaseException:
            # e.g. a re-entrant acquire (LatchError): the pin taken
            # above must not leak when the latch is never granted
            self.unpin(pid)
            raise
        return frame

    def unfix(self, frame: Frame) -> None:
        """Release the latch and drop the pin taken by :meth:`fix`."""
        frame.latch.release()
        self.unpin(frame.page.pid)

    @contextmanager
    def fixed(self, pid: PageId, mode: LatchMode) -> Iterator[Frame]:
        """Context-manager form of :meth:`fix` / :meth:`unfix`."""
        frame = self.fix(pid, mode)
        try:
            yield frame
        finally:
            self.unfix(frame)

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------
    def flush_page(self, pid: PageId) -> None:
        """Write one dirty page to disk under the WAL rule.

        If the disk write fails (injected permanent write fault), the
        frame's dirty state is restored before the typed error
        propagates: the in-memory image plus its WAL coverage is never
        lost, and a later flush — or restart redo onto repaired
        storage — retries the write.
        """
        shard = self._shard(pid)
        with self._locked(shard):
            frame = shard.frames.get(pid)
            if frame is None or not frame.dirty:
                return
            snapshot = frame.page.snapshot()
            rec_lsn = frame.rec_lsn
            frame.dirty = False
            frame.rec_lsn = None
        try:
            self.wal_flush(snapshot.page_lsn)
            t0 = perf_counter_ns()
            self.store.write(snapshot)
            dur = perf_counter_ns() - t0
            self._h_write_ns.record(dur)
            if self._tracker is not None:
                self._tracker.add_io(dur)
        except BaseException:
            self._c_write_faults.inc()
            with self._locked(shard):
                if shard.frames.get(pid) is frame:
                    frame.dirty = True
                    if frame.rec_lsn is None:
                        frame.rec_lsn = rec_lsn
                    elif rec_lsn is not None:
                        frame.rec_lsn = min(frame.rec_lsn, rec_lsn)
            raise

    def flush_all(self) -> None:
        """Flush every dirty page (clean shutdown / checkpoint end).

        Every page is attempted even when one write fails, so a single
        poisoned page cannot pin the rest of the dirty set in memory;
        the first error is re-raised after the sweep.
        """
        dirty: list[PageId] = []
        for shard in self._shards:
            with self._locked(shard):
                dirty.extend(
                    pid for pid, f in shard.frames.items() if f.dirty
                )
        first_error: BaseException | None = None
        for pid in dirty:
            try:
                self.flush_page(pid)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def dirty_count(self) -> int:
        """How many resident frames are dirty right now.

        Latch-free (gauges and ``db.stats()`` call it from any thread):
        a count, not a table a checkpoint could be built from.
        """
        count = 0
        for shard in self._shards:
            with self._locked(shard):
                count += sum(f.dirty for f in shard.frames.values())
        return count

    def dirty_page_table(self) -> dict[PageId, int]:
        """``{pid: recLSN}`` for every dirty page (checkpointing).

        Each frame is read under its S latch.  A writer appends its log
        record and calls :meth:`Frame.mark_dirty` under the X latch, so
        the read never falls between the two: a record appended before
        this call either has its page listed here with a recLSN at or
        below it, or its page was written back since.  One latch is
        held at a time and nothing else with it; the caller must hold
        no latch.  A frame evicted between the shard sweep and its
        latch is read as it was when it left (at worst one entry too
        many, which redo reads and finds current).
        """
        table: dict[PageId, int] = {}
        for shard in self._shards:
            with self._locked(shard):
                frames = list(shard.frames.values())
            for frame in frames:
                frame.latch.acquire(LatchMode.S)
                try:
                    if frame.dirty and frame.rec_lsn is not None:
                        table[frame.page.pid] = frame.rec_lsn
                finally:
                    frame.latch.release()
        return table

    # ------------------------------------------------------------------
    # crash simulation
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all buffered state, as a power failure would.

        Nothing is flushed; only page images the WAL rule already forced
        to disk survive.  The caller must have quiesced worker threads.
        """
        for shard in self._shards:
            with self._locked(shard):
                shard.frames.clear()
                shard.ring.clear()
                shard.hand = 0
                for event in shard.loading.values():
                    event.set()
                shard.loading.clear()
                for event in shard.writeback.values():
                    event.set()
                shard.writeback.clear()
        with self._cap_lock:
            self._n_resident = 0

    def resident(self, pid: PageId) -> bool:
        """True if the page currently has a frame in the pool."""
        shard = self._shard(pid)
        with self._locked(shard):
            return pid in shard.frames

    def drop(self, pid: PageId) -> None:
        """Discard a (clean, unpinned) frame, e.g. after freeing a node."""
        shard = self._shard(pid)
        with self._locked(shard):
            frame = shard.frames.get(pid)
            if frame is None:
                return
            if frame.pin_count > 0:
                raise BufferPoolError(f"dropping pinned page {pid}")
            del shard.frames[pid]
        self._release_slot()
