"""Admission queue unit tests: bounds, FIFO, hints, shutdown."""

import threading
import time

import pytest

from repro.server.admission import AdmissionQueue, Ticket


def _ticket(req_id=1, deadline=None):
    return Ticket(
        req_id=req_id,
        method="get",
        payload=("t", req_id),
        deadline=deadline,
        conn=None,
        klass="point",
    )


class TestOfferTake:
    def test_fifo_order(self):
        q = AdmissionQueue("point", 8)
        for i in range(5):
            assert q.offer(_ticket(i)) is True
        assert [q.take().req_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_offer_refuses_when_full(self):
        q = AdmissionQueue("point", 2)
        assert q.offer(_ticket(0))
        assert q.offer(_ticket(1))
        assert q.offer(_ticket(2)) is False
        assert q.rejected == 1
        assert q.accepted == 2

    def test_offer_never_blocks(self):
        q = AdmissionQueue("point", 1)
        waits = []
        cond_wait = q._cond.wait

        def counting_wait(timeout=None):
            waits.append(timeout)
            return cond_wait(timeout)

        q._cond.wait = counting_wait
        q.offer(_ticket(0))
        # a full queue refuses without one condition wait
        assert q.offer(_ticket(1)) is False
        assert waits == []
        # the spy sees the wait a taker on an empty queue does make
        q.take()
        assert q.take(timeout=0.001) is None
        assert waits == [0.001]

    def test_take_timeout_returns_none(self):
        q = AdmissionQueue("point", 4)
        start = time.monotonic()
        assert q.take(timeout=0.05) is None
        assert time.monotonic() - start >= 0.04

    def test_take_wakes_on_offer(self):
        q = AdmissionQueue("point", 4)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take(2.0)))
        t.start()
        time.sleep(0.05)
        q.offer(_ticket(7))
        t.join(timeout=2.0)
        assert got and got[0].req_id == 7

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue("point", 0)


class TestRetryHint:
    def test_hint_clamped_to_floor_when_idle(self):
        q = AdmissionQueue("point", 8, min_hint=0.005, max_hint=1.0)
        assert q.retry_hint() == 0.005

    def test_hint_clamped_to_ceiling(self):
        q = AdmissionQueue("point", 4, min_hint=0.005, max_hint=0.25)
        # simulate a long observed wait
        q._ema_wait = 10.0
        for i in range(4):
            q.offer(_ticket(i))
        assert q.retry_hint() == 0.25

    def test_hint_grows_with_observed_wait(self):
        q = AdmissionQueue("point", 4)
        q.offer(_ticket(0))
        time.sleep(0.05)
        q.take()
        assert q.retry_hint() > 0.005


class TestTicket:
    def test_no_deadline_never_expires(self):
        t = _ticket(deadline=None)
        assert t.expired() is False
        assert t.remaining() is None

    def test_expired_and_remaining(self):
        t = _ticket(deadline=200.0)
        assert t.expired(now=199.0) is False
        assert t.expired(now=200.0) is True
        assert t.remaining(now=199.5) == pytest.approx(0.5)


class TestShutdown:
    def test_close_refuses_offers(self):
        q = AdmissionQueue("point", 4)
        q.close()
        assert q.offer(_ticket(0)) is False

    def test_close_wakes_blocked_taker(self):
        q = AdmissionQueue("point", 4)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take(5.0)))
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert got == [None]

    def test_drain_returns_leftovers(self):
        q = AdmissionQueue("point", 4)
        for i in range(3):
            q.offer(_ticket(i))
        drained = q.drain()
        assert [t.req_id for t in drained] == [0, 1, 2]
        assert len(q) == 0


class TestSnapshot:
    def test_snapshot_fields(self):
        q = AdmissionQueue("point", 4)
        q.offer(_ticket(0))
        q.offer(_ticket(1))
        q.take()
        snap = q.snapshot()
        assert snap["depth"] == 1
        assert snap["capacity"] == 4
        assert snap["accepted"] == 2
        assert snap["rejected"] == 0
        assert snap["ema_wait_ms"] >= 0.0
