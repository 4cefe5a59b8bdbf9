"""Benchmark and verification harness: drivers, crash injection, probes.

The crash/recovery trials live in :mod:`repro.harness.chaos` (run it
as ``python -m repro.harness.chaos``); they are not re-exported here,
so that running the module does not import it twice.
"""

from repro.harness.driver import (
    RETRYABLE_ERRORS,
    BaselineDriver,
    DriverMetrics,
    TransactionalDriver,
    run_with_retry,
)
from repro.harness.phantoms import AnomalyReport, run_phantom_campaign
from repro.harness.report import render_table

__all__ = [
    "AnomalyReport",
    "BaselineDriver",
    "DriverMetrics",
    "RETRYABLE_ERRORS",
    "TransactionalDriver",
    "render_table",
    "run_phantom_campaign",
    "run_with_retry",
]
