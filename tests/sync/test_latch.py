"""Unit tests for S/X latches."""

import threading
import time

import pytest

from repro.errors import LatchError
from repro.sync.latch import LatchMode, SXLatch


class TestBasicModes:
    def test_multiple_readers(self):
        latch = SXLatch()
        assert latch.acquire(LatchMode.S)
        done = threading.Event()

        def reader():
            latch.acquire(LatchMode.S)
            done.set()
            latch.release()

        t = threading.Thread(target=reader)
        t.start()
        assert done.wait(2.0)
        t.join()
        latch.release()

    def test_writer_excludes_reader(self):
        latch = SXLatch()
        latch.acquire(LatchMode.X)
        assert latch.held_by_me() == LatchMode.X
        got = []

        def reader():
            got.append(latch.acquire(LatchMode.S, nowait=True))

        t = threading.Thread(target=reader)
        t.start()
        t.join()
        assert got == [False]
        latch.release()

    def test_reader_excludes_writer(self):
        latch = SXLatch()
        latch.acquire(LatchMode.S)
        got = []
        t = threading.Thread(
            target=lambda: got.append(
                latch.acquire(LatchMode.X, nowait=True)
            )
        )
        t.start()
        t.join()
        assert got == [False]
        latch.release()

    def test_blocking_writer_eventually_granted(self):
        latch = SXLatch()
        latch.acquire(LatchMode.S)
        acquired = threading.Event()

        def writer():
            latch.acquire(LatchMode.X)
            acquired.set()
            latch.release()

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.02)
        assert not acquired.is_set()
        latch.release()
        assert acquired.wait(2.0)
        t.join()


class TestProtocolErrors:
    def test_reacquire_raises(self):
        latch = SXLatch(name="n")
        latch.acquire(LatchMode.S)
        with pytest.raises(LatchError):
            latch.acquire(LatchMode.S)
        latch.release()

    def test_release_unheld_raises(self):
        latch = SXLatch()
        with pytest.raises(LatchError):
            latch.release()

    def test_x_then_s_request_raises(self):
        latch = SXLatch()
        latch.acquire(LatchMode.X)
        with pytest.raises(LatchError):
            latch.acquire(LatchMode.S)
        latch.release()


class TestWriterPreference:
    def test_queued_writer_blocks_new_readers(self):
        latch = SXLatch()
        latch.acquire(LatchMode.S)
        writer_started = threading.Event()
        writer_done = threading.Event()

        def writer():
            writer_started.set()
            latch.acquire(LatchMode.X)
            writer_done.set()
            latch.release()

        wt = threading.Thread(target=writer)
        wt.start()
        writer_started.wait()
        time.sleep(0.02)  # let the writer queue up
        # a fresh reader must now fail nowait (writer preference)
        got = []
        rt = threading.Thread(
            target=lambda: got.append(
                latch.acquire(LatchMode.S, nowait=True)
            )
        )
        rt.start()
        rt.join()
        assert got == [False]
        latch.release()
        assert writer_done.wait(2.0)
        wt.join()


class TestIntrospection:
    def test_holders_and_counts(self):
        latch = SXLatch()
        assert latch.holders() == ()
        latch.acquire(LatchMode.S)
        assert threading.get_ident() in latch.holders()
        assert latch.acquisitions == 1
        latch.release()
