"""Synchronization primitives: S/X latches and deterministic test hooks."""

from repro.sync.hooks import (
    NULL_HOOKS,
    CountingGate,
    EventLog,
    FiringCounter,
    Gate,
    Hooks,
    PredicateGate,
)
from repro.sync.latch import LatchMode, SXLatch

__all__ = [
    "NULL_HOOKS",
    "CountingGate",
    "EventLog",
    "FiringCounter",
    "Gate",
    "Hooks",
    "LatchMode",
    "PredicateGate",
    "SXLatch",
]
