"""Buffer pool with pinning, per-frame latches and WAL enforcement.

The buffer pool is the substrate that makes the paper's latch protocol
meaningful: tree nodes are latched *through* their buffer frames, pages
are fetched from the simulated disk on miss (paying I/O latency **without
any tree latch held**, per the protocol), and dirty pages are written back
under the write-ahead-logging rule — the log is flushed up to the page's
LSN before the page image reaches disk.

One mutex guards the frame table, the load/writeback coalescing events,
the clock ring and the resident count; it is never held across I/O.  A
pin of a resident page takes it once and an unpin once
(``tests/storage/test_buffer.py`` asserts this via ``lock_acquisitions``).
Victim selection is an amortized second-chance clock rather than a full
scan, so eviction cost does not grow with pool capacity.

Crash simulation (:meth:`BufferPool.crash`) simply discards every frame:
whatever the WAL rule forced to disk is all that survives, which is
exactly the state restart recovery (section 9) must cope with.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter_ns
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
        #: second-chance reference bit, guarded by the pool mutex.
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


class BufferPool:
    """A fixed-capacity page cache over a :class:`PageStore`.

    Parameters
    ----------
    store:
        The backing page store.
    capacity:
        Maximum number of resident frames.  Must comfortably exceed the
        largest working set a single operation pins at once — a
        recursive split cascade latches roughly two frames per tree
        level — so a few dozen frames is the practical floor for deep
        trees (the pool raises :class:`BufferPoolError` rather than
        deadlocking when it cannot make room).
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

    Every field below the mutex is mutated only while it is held —
    including the plain-int counters, which is what keeps them exact
    without atomics (asserted by
    tests/storage/test_buffer.py::test_counters_updated_under_pool_lock).
    """

    #: a page read that failed with
    #: :class:`~repro.errors.TransientIOError` is retried this many times,
    #: immediately, before the error surfaces
    IO_RETRIES = 4

    def __init__(
        self,
        store: PageStore,
        capacity: int = 1024,
        wal_flush: Callable[[int], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise BufferPoolError("buffer pool capacity must be >= 1")
        self.store = store
        self.capacity = capacity
        self.wal_flush = wal_flush or (lambda lsn: None)
        #: callable rebuilding a page image from the WAL (wired by the
        #: database assembly); enables torn-page self-healing on fix
        self.page_rebuilder: Callable[[PageId], Page | None] | None = None
        self._mutex = threading.Lock()
        self._frames: dict[PageId, Frame] = {}
        self._loading: dict[PageId, threading.Event] = {}
        self._writeback: dict[PageId, threading.Event] = {}
        #: clock ring of page ids, swept by ``_hand``.  Slots go stale
        #: when their page is evicted or dropped and are reaped lazily.
        self._ring: list[PageId] = []
        self._hand = 0
        #: frames counted against ``capacity``: the resident ones plus
        #: evicted dirty ones whose writeback is still in flight
        self._n_resident = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: acquisitions of the pool mutex
        self.lock_acquisitions = 0
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
        # the default — keeps pin/unpin and the pool mutex entirely
        # free of witness calls, same gating idea as ``_track_fixes``;
        # tests/storage/test_buffer.py counter-asserts the off state.
        self._witness = None
        # Span tracker (Database(op_tracing=True)): pins and I/O are
        # attributed to the calling thread's operation span.  Same
        # gating pattern — ``None`` keeps the hot paths span-free.
        self._tracker = None
        self._latch_timer = (
            LatchTimer(self.metrics) if self.metrics.enabled else None
        )
        # Evaluated only at snapshot time — a pin costs zero registry
        # calls.
        self.metrics.gauge("buffer.hits", lambda: self.hits)
        self.metrics.gauge("buffer.misses", lambda: self.misses)
        self.metrics.gauge("buffer.evictions", lambda: self.evictions)
        self.metrics.gauge("buffer.resident", lambda: len(self._frames))
        self.metrics.gauge("buffer.dirty", self.dirty_count)
        self.metrics.gauge("buffer.hit_rate", self._hit_rate)

    def attach_witness(self, witness) -> None:
        """Install (or clear, with ``None``) a lockdep witness.

        Future frames inherit it through their latches; already-resident
        frames are swept so restarts with ``protocol_checks`` toggled
        behave uniformly.
        """
        self._witness = witness
        with self._locked():
            for frame in self._frames.values():
                frame.latch.witness = witness

    def attach_span_tracker(self, tracker) -> None:
        """Install (or clear, with ``None``) a span tracker.

        Future frames inherit it through their latches; already-resident
        frames are swept so restarts with ``op_tracing`` toggled behave
        uniformly (mirrors :meth:`attach_witness`).
        """
        self._tracker = tracker
        with self._locked():
            for frame in self._frames.values():
                frame.latch.tracker = tracker

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Acquire the pool mutex, counting the acquisition.

        ``_pin`` and ``unpin`` — two acquisitions per page fix — take
        ``_mutex`` directly with the same bookkeeping instead of
        paying for a generator context manager each time.
        """
        with self._mutex:
            self.lock_acquisitions += 1
            witness = self._witness
            if witness is None:
                yield
            else:
                witness.note_acquired("pool", "mutex")
                try:
                    yield
                finally:
                    witness.note_released("pool", "mutex")

    def _hit_rate(self) -> float:
        hits, misses = self.hits, self.misses
        total = hits + misses
        return round(hits / total, 4) if total else 0.0

    # ------------------------------------------------------------------
    # clock and capacity (called with ``_mutex`` held unless noted)
    # ------------------------------------------------------------------
    def _insert(self, frame: Frame) -> None:
        pid = frame.page.pid
        self._frames[pid] = frame
        frame.ref = True
        self._ring.append(pid)
        if len(self._ring) > 2 * len(self._frames) + 8:
            self._compact_ring()

    def _compact_ring(self) -> None:
        """Drop stale/duplicate ring slots, preserving clock order."""
        seen: set[PageId] = set()
        fresh: list[PageId] = []
        hand = min(self._hand, len(self._ring))
        for pid in self._ring[hand:] + self._ring[:hand]:
            if pid in self._frames and pid not in seen:
                seen.add(pid)
                fresh.append(pid)
        self._ring = fresh
        self._hand = 0

    def _pick_victim(self) -> tuple[PageId, Frame] | None:
        """Advance the second-chance clock to an evictable frame.

        Amortized O(1): each sweep step either reaps a stale slot or
        spends a frame's reference bit; at most two full passes run
        before giving up (everything pinned or latched).
        """
        ring = self._ring
        examined = 0
        limit = 2 * len(ring)
        while ring and examined <= limit:
            if self._hand >= len(ring):
                self._hand = 0
            pid = ring[self._hand]
            frame = self._frames.get(pid)
            if frame is None:
                ring.pop(self._hand)  # stale: evicted or dropped earlier
                continue
            examined += 1
            if frame.pin_count == 0 and not frame.latch.holders():
                if frame.ref:
                    frame.ref = False
                    self._hand += 1
                else:
                    ring.pop(self._hand)
                    return pid, frame
            else:
                self._hand += 1
        return None

    def _install(self, frame: Frame, *, adopt: bool = False) -> None:
        """Claim a slot for ``frame`` and make it resident, evicting one
        frame per round while the pool is full (no mutex held on entry).

        A dirty victim is written back with the mutex released; its
        slot stays claimed until the write lands, and a concurrent pin
        of its pid waits on the published writeback event instead of
        reading a stale disk image.  Raises :class:`BufferPoolError`
        when every frame is pinned or latched, or (``adopt``) when the
        page is already resident.
        """
        pid = frame.page.pid
        while True:
            with self._locked():
                if adopt and pid in self._frames:
                    raise BufferPoolError(f"page {pid} already resident")
                if self._n_resident < self.capacity:
                    self._n_resident += 1
                    self._insert(frame)
                    return
                victim = self._pick_victim()
                if victim is None:
                    raise BufferPoolError(
                        "buffer pool full and every frame is pinned"
                    )
                vpid, vframe = victim
                del self._frames[vpid]
                self.evictions += 1
                if not vframe.dirty:
                    self._n_resident -= 1
                    continue
                event = threading.Event()
                self._writeback[vpid] = event
                snapshot = vframe.page.snapshot()
            written = False
            try:
                self._write(snapshot)
                written = True
            finally:
                with self._locked():
                    self._writeback.pop(vpid, None)
                    if written:
                        self._n_resident -= 1
                    else:
                        # The writeback failed: reinstall the (still
                        # dirty) frame so the only copy of the page is
                        # never lost; the typed error propagates.
                        self._c_write_faults.inc()
                        self.evictions -= 1
                        self._insert(vframe)
                event.set()

    def _write(self, page: Page) -> None:
        """Force the log through ``page``'s LSN, then write it (the WAL
        rule; no mutex held)."""
        self.wal_flush(page.page_lsn)
        t0 = perf_counter_ns()
        self.store.write(page)
        dur = perf_counter_ns() - t0
        self._h_write_ns.record(dur)
        if self._tracker is not None:
            self._tracker.add_io(dur)

    # ------------------------------------------------------------------
    # pin / unpin
    # ------------------------------------------------------------------
    def pin(self, pid: PageId) -> Frame:
        """Pin ``pid``, fetching it from disk on a miss.

        The disk read (the slow part) happens with **no pool lock and no
        latch held**; concurrent pinners of the same page coalesce onto a
        single read.  A hit on a resident page acquires the pool mutex
        once.
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
                with self._locked():
                    if (
                        self._frames.get(pid) is frame
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
        with self._locked():
            frames = list(self._frames.values())
        for frame in frames:
            try:
                while frame.latch.held_by_me():
                    frame.latch.release()
                    released += 1
            except Exception:  # pragma: no cover - best-effort
                break  # lint: allow(swallowed-fault): best-effort sweep
        return released

    def _pin(self, pid: PageId) -> Frame:
        while True:
            wait_for: threading.Event | None = None
            with self._mutex:  # self._locked(), inlined
                self.lock_acquisitions += 1
                witness = self._witness
                if witness is not None:
                    witness.note_acquired("pool", "mutex")
                try:
                    frame = self._frames.get(pid)
                    if frame is not None:
                        frame.pin_count += 1
                        frame.ref = True
                        self.hits += 1
                        return frame
                    if pid in self._writeback:
                        wait_for = self._writeback[pid]
                    elif pid in self._loading:
                        wait_for = self._loading[pid]
                    else:
                        event = threading.Event()
                        self._loading[pid] = event
                        self.misses += 1
                finally:
                    if witness is not None:
                        witness.note_released("pool", "mutex")
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
                self._install(frame)
                return frame
            finally:
                with self._locked():
                    event = self._loading.pop(pid, None)
                if event is not None:
                    event.set()

    def _read_page(self, pid: PageId) -> Page:
        """``store.read`` with transient-fault retry and torn-page heal.

        Transient read errors are retried up to :attr:`IO_RETRIES`
        times.  A checksum mismatch (torn page) is healed when the
        database wired a ``page_rebuilder``: the image is reconstructed
        by WAL replay and re-persisted, so the next reader finds a clean
        page.  Either error surfaces typed when it cannot be absorbed —
        never silent corruption.
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
                if attempt > self.IO_RETRIES:
                    raise
                self._c_io_retries.inc()
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
        with self._mutex:  # self._locked(), inlined
            self.lock_acquisitions += 1
            witness = self._witness
            if witness is not None:
                witness.note_acquired("pool", "mutex")
            try:
                frame = self._frames.get(pid)
                if frame is None or frame.pin_count <= 0:
                    raise BufferPoolError(
                        f"unpin of page {pid} that is not pinned"
                    )
                frame.pin_count -= 1
            finally:
                if witness is not None:
                    witness.note_released("pool", "mutex")
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
        self._install(frame)
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
        self._install(frame, adopt=True)
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
        with self._locked():
            frame = self._frames.get(pid)
            if frame is None or not frame.dirty:
                return
            snapshot = frame.page.snapshot()
            rec_lsn = frame.rec_lsn
            frame.dirty = False
            frame.rec_lsn = None
        try:
            self._write(snapshot)
        except BaseException:
            self._c_write_faults.inc()
            with self._locked():
                if self._frames.get(pid) is frame:
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
        with self._locked():
            dirty = [pid for pid, f in self._frames.items() if f.dirty]
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
        with self._locked():
            return sum(f.dirty for f in self._frames.values())

    def dirty_page_table(self) -> dict[PageId, int]:
        """``{pid: recLSN}`` for every dirty page (checkpointing).

        Each frame is read under its S latch.  A writer appends its log
        record and calls :meth:`Frame.mark_dirty` under the X latch, so
        the read never falls between the two: a record appended before
        this call either has its page listed here with a recLSN at or
        below it, or its page was written back since.  One latch is
        held at a time and nothing else with it; the caller must hold
        no latch.  A frame evicted between the frame-table read and its
        latch is read as it was when it left (at worst one entry too
        many, which redo reads and finds current).
        """
        table: dict[PageId, int] = {}
        with self._locked():
            frames = list(self._frames.values())
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
        with self._locked():
            self._frames.clear()
            self._ring.clear()
            self._hand = 0
            for event in self._loading.values():
                event.set()
            self._loading.clear()
            for event in self._writeback.values():
                event.set()
            self._writeback.clear()
            self._n_resident = 0

    def resident(self, pid: PageId) -> bool:
        """True if the page currently has a frame in the pool."""
        with self._locked():
            return pid in self._frames

    def drop(self, pid: PageId) -> None:
        """Discard a (clean, unpinned) frame, e.g. after freeing a node."""
        with self._locked():
            frame = self._frames.get(pid)
            if frame is None:
                return
            if frame.pin_count > 0:
                raise BufferPoolError(f"dropping pinned page {pid}")
            del self._frames[pid]
            self._n_resident -= 1
