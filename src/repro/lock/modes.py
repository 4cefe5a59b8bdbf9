"""Lock modes and their two rules: compatibility and conversion.

The paper's protocols need only S and X locks, on data records and on
owner transactions (section 4, footnote 8; signaling locks are counts,
:mod:`repro.lock.signaling`).  S is compatible with S alone, X with
nothing, and the one conversion is S to X.
"""

from __future__ import annotations

from enum import Enum


class LockMode(Enum):
    """Shared and exclusive."""

    S = "S"
    X = "X"


def compatible(held: LockMode, requested: LockMode) -> bool:
    """True if ``requested`` can be granted alongside ``held``."""
    return held is LockMode.S and requested is LockMode.S


def supremum(a: LockMode, b: LockMode) -> LockMode:
    """The weakest mode at least as strong as both ``a`` and ``b``."""
    return a if a is b else LockMode.X


def stronger_or_equal(a: LockMode, b: LockMode) -> bool:
    """True if holding ``a`` subsumes a request for ``b``."""
    return supremum(a, b) is a
