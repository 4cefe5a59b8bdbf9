"""Transactional lock manager: modes, queues, deadlock detection."""

from repro.lock.manager import LockManager, LockName, LockStats, Owner
from repro.lock.modes import LockMode, compatible, stronger_or_equal, supremum

__all__ = [
    "LockManager",
    "LockMode",
    "LockName",
    "LockStats",
    "Owner",
    "compatible",
    "stronger_or_equal",
    "supremum",
]
