"""Unit tests of the Transaction object's bookkeeping."""

import pytest

from repro.errors import TransactionStateError
from repro.lock.signaling import SignalingLocks
from repro.txn.transaction import (
    IsolationLevel,
    Savepoint,
    Transaction,
    TxnState,
)


class TestStateMachine:
    def test_fresh_transaction_active(self):
        txn = Transaction(1)
        assert txn.is_active
        txn.require_active()  # no raise

    def test_rolling_back_counts_as_active_but_not_usable(self):
        txn = Transaction(1)
        txn.state = TxnState.ROLLING_BACK
        assert txn.is_active
        with pytest.raises(TransactionStateError):
            txn.require_active()

    def test_finished_states(self):
        txn = Transaction(1)
        txn.state = TxnState.COMMITTED
        assert not txn.is_active
        with pytest.raises(TransactionStateError):
            txn.require_active()

    def test_isolation_flags(self):
        assert Transaction(1).repeatable_read
        assert not Transaction(
            2, IsolationLevel.READ_COMMITTED
        ).repeatable_read
        assert not Transaction(
            3, IsolationLevel.READ_UNCOMMITTED
        ).repeatable_read


def _visit(table, txn, name):
    """What a node visit does with its hold (GiST._release_signaling)."""
    if not txn.keeps_signaling(name):
        table.drop(txn.xid, name)


class TestSignalingBookkeeping:
    """The transaction decides which holds a visit must keep; the
    signaling table counts them."""

    def test_note_then_release(self):
        table, txn = SignalingLocks(), Transaction(1)
        name = ("node", "t", 5)
        table.take(txn.xid, name)
        assert table.holders(name) == {1: 1}
        _visit(table, txn, name)
        assert table.holders(name) == {}
        assert table.names_of(txn.xid) == set()

    def test_eot_pin_blocks_release(self):
        table, txn = SignalingLocks(), Transaction(1)
        name = ("node", "t", 5)
        table.take(txn.xid, name)
        txn.pin_signaling_to_eot(name)
        _visit(table, txn, name)
        assert table.holders(name) == {1: 1}
        table.release(txn.xid)  # end of transaction
        assert table.holders(name) == {}

    def test_savepoint_pin_blocks_release_until_popped(self):
        table, txn = SignalingLocks(), Transaction(1)
        name = ("node", "t", 5)
        table.take(txn.xid, name)
        table.take(txn.xid, name)
        sp = Savepoint(name="s", lsn=0, pinned_signaling={name})
        txn.add_savepoint(sp)
        _visit(table, txn, name)
        assert table.holders(name) == {1: 2}
        txn.release_savepoint(sp)
        _visit(table, txn, name)
        assert table.holders(name) == {1: 1}

    def test_nested_savepoint_pins_recomputed(self):
        table, txn = SignalingLocks(), Transaction(1)
        n1, n2 = ("node", "t", 1), ("node", "t", 2)
        table.take(txn.xid, n1)
        table.take(txn.xid, n2)
        sp1 = Savepoint(name="1", lsn=0, pinned_signaling={n1})
        sp2 = Savepoint(name="2", lsn=0, pinned_signaling={n2})
        txn.add_savepoint(sp1)
        txn.add_savepoint(sp2)
        assert txn.keeps_signaling(n2)
        txn.pop_savepoints_after(sp1)  # sp2 gone
        _visit(table, txn, n2)
        _visit(table, txn, n1)
        assert table.names_of(txn.xid) == {n1}

    def test_signaling_counts(self):
        table, txn = SignalingLocks(), Transaction(1)
        name = ("node", "t", 9)
        table.take(txn.xid, name)
        table.take(txn.xid, name)
        _visit(table, txn, name)
        assert table.holders(name) == {1: 1}
        _visit(table, txn, name)
        assert table.holders(name) == {}
        _visit(table, txn, name)  # a drop with no hold left is a no-op
        assert table.holders(name) == {}


class TestCursorRegistry:
    def test_register_unregister(self):
        txn = Transaction(1)
        cursor = object()
        txn.register_cursor(cursor)
        assert txn.open_cursors() == [cursor]
        txn.unregister_cursor(cursor)
        assert txn.open_cursors() == []

    def test_unregister_unknown_is_noop(self):
        txn = Transaction(1)
        txn.unregister_cursor(object())
