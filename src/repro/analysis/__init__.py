"""Mechanical protocol enforcement (DESIGN.md §10).

Two prongs keep the paper's latch/lock/WAL invariants machine-checked
instead of docstring-checked:

* :mod:`repro.analysis.lint` — a static, AST-based linter
  (``python -m repro.analysis.lint src/repro``) enforcing the lexical
  discipline: balanced latch/pin acquisition, no I/O-class call and no
  lock wait inside a latch-held region, no swallowed storage faults.
* :mod:`repro.analysis.lockdep` — a runtime lock-order witness wired
  into :class:`~repro.database.Database` via the ``protocol_checks``
  knob: records the acquisition graph across latches, the buffer-pool
  mutex and lock-manager queues, and flags potential-deadlock cycles,
  latch-held-across-I/O, latch-held-across-lock-wait and WAL-rule
  violations at the moment they occur.
"""

from repro.analysis.lockdep import (  # noqa: F401
    LockdepWitness,
    ProtocolViolation,
    all_witnesses,
    drain_new_violations,
)
