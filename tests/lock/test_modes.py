"""Unit tests for the S/X compatibility and supremum rules."""

import pytest

from repro.lock.modes import (
    LockMode,
    compatible,
    stronger_or_equal,
    supremum,
)

S, X = LockMode.S, LockMode.X


class TestCompatibility:
    @pytest.mark.parametrize(
        "held,requested,expected",
        [
            (S, S, True),
            (S, X, False),
            (X, S, False),
            (X, X, False),
        ],
    )
    def test_matrix(self, held, requested, expected):
        assert compatible(held, requested) is expected

    def test_x_conflicts_with_everything(self):
        for mode in LockMode:
            assert not compatible(X, mode)
            assert not compatible(mode, X)


class TestSupremum:
    def test_supremum_is_commutative(self):
        for a in LockMode:
            for b in LockMode:
                assert supremum(a, b) == supremum(b, a)

    def test_supremum_idempotent(self):
        for a in LockMode:
            assert supremum(a, a) == a

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (S, X, X),
        ],
    )
    def test_known_suprema(self, a, b, expected):
        assert supremum(a, b) == expected

    def test_supremum_upper_bounds_both(self):
        # the supremum must be >= both inputs under the subsumption order
        for a in LockMode:
            for b in LockMode:
                sup = supremum(a, b)
                assert stronger_or_equal(sup, a)
                assert stronger_or_equal(sup, b)


class TestSubsumption:
    def test_x_subsumes_all(self):
        for mode in LockMode:
            assert stronger_or_equal(X, mode)


def test_lock_mode_is_shared_or_exclusive():
    assert list(LockMode) == [S, X]
