"""Lock modes, compatibility and conversion (supremum) tables.

The paper's protocols only need S and X locks on records and owner
transactions (signaling locks are counts, :mod:`repro.lock.signaling`),
but a production lock manager carries the full multi-granularity set,
and the harness uses intention modes for table-level locking in the
isolation experiments, so we implement Gray & Reuter's five-mode matrix.
"""

from __future__ import annotations

from enum import Enum


class LockMode(Enum):
    """Multi-granularity lock modes."""

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"


_ORDER = {
    LockMode.IS: 0,
    LockMode.IX: 1,
    LockMode.S: 2,
    LockMode.SIX: 3,
    LockMode.X: 4,
}

#: compat[a][b] is True when a lock held in mode ``a`` is compatible with a
#: request for mode ``b``.
_COMPAT: dict[LockMode, set[LockMode]] = {
    LockMode.IS: {LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX},
    LockMode.IX: {LockMode.IS, LockMode.IX},
    LockMode.S: {LockMode.IS, LockMode.S},
    LockMode.SIX: {LockMode.IS},
    LockMode.X: set(),
}

#: supremum[(a, b)] is the weakest mode at least as strong as both.
_SUP: dict[tuple[LockMode, LockMode], LockMode] = {}
for _a in LockMode:
    for _b in LockMode:
        if _a is _b:
            _SUP[(_a, _b)] = _a
        elif {_a, _b} == {LockMode.S, LockMode.IX}:
            _SUP[(_a, _b)] = LockMode.SIX
        elif _ORDER[_a] >= _ORDER[_b]:
            _SUP[(_a, _b)] = _a
        else:
            _SUP[(_a, _b)] = _b


def compatible(held: LockMode, requested: LockMode) -> bool:
    """True if ``requested`` can be granted alongside ``held``."""
    return requested in _COMPAT[held]


def supremum(a: LockMode, b: LockMode) -> LockMode:
    """The weakest mode at least as strong as both ``a`` and ``b``."""
    return _SUP[(a, b)]


def stronger_or_equal(a: LockMode, b: LockMode) -> bool:
    """True if holding ``a`` subsumes a request for ``b``."""
    return supremum(a, b) is a
