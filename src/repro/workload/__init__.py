"""Deterministic workload generation for benchmarks and tests.

:mod:`repro.workload.scenario` (runnable as
``python -m repro.workload.scenario``) is deliberately not re-exported
here: importing it at package level would shadow its ``-m`` execution
and it pulls in the full database assembly.
"""

from repro.workload.generator import (
    MixSpec,
    Op,
    RectKeys,
    ScalarKeys,
    ScalarWorkload,
    SetKeys,
    partition_ops,
)

__all__ = [
    "MixSpec",
    "Op",
    "RectKeys",
    "ScalarKeys",
    "ScalarWorkload",
    "SetKeys",
    "partition_ops",
]
