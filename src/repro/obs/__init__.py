"""Unified observability layer: metrics, tracing, black box, oracle.

Every subsystem (latches, locks, buffer pool, WAL, trees, recovery)
reports into one :class:`MetricsRegistry` owned by the
:class:`~repro.database.Database` (``db.metrics``).  The dotted metric
names are a stable public contract documented in README.md
("Observability") and DESIGN.md §7.

Observability v2 (DESIGN.md §11) adds three coupled subsystems:

* :class:`FlightRecorder` — the one event recorder: an always-on
  bounded black box of recent rare events, dumped as replayable JSONL
  on failed chaos trials, lockdep hard violations and deadlock-victim
  selection;
* :class:`SpanTracker` / :class:`OpSpan` — per-operation latency
  attribution (latch wait vs lock wait vs I/O vs WAL vs CPU), enabled
  with ``Database(op_tracing=True)``; each completed span is one
  ``op.<kind>`` event on the flight recorder, and
  :func:`spans_from_events` reads the span view back out of a dump;
* :class:`HistoryRecorder` + :func:`check_linearizability` /
  :func:`check_read_committed` — invocation/response histories checked
  mechanically for per-element linearizability.
"""

from repro.obs.export import (
    NONDETERMINISTIC_FIELDS,
    canonical_events,
    dump_jsonl,
    dumps_line,
    load_jsonl,
)
from repro.obs.flightrec import FlightEvent, FlightRecorder
from repro.obs.history import (
    HistoryOp,
    HistoryRecorder,
    OracleReport,
    check_linearizability,
    check_read_committed,
)
from repro.obs.metrics import (
    DEFAULT_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LatchTimer,
    MetricsRegistry,
)
from repro.obs.spans import OpSpan, SpanTracker, spans_from_events

__all__ = [
    "Counter",
    "DEFAULT_NS_BUCKETS",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistoryOp",
    "HistoryRecorder",
    "LatchTimer",
    "MetricsRegistry",
    "NONDETERMINISTIC_FIELDS",
    "OpSpan",
    "OracleReport",
    "SpanTracker",
    "canonical_events",
    "check_linearizability",
    "check_read_committed",
    "dump_jsonl",
    "dumps_line",
    "load_jsonl",
    "spans_from_events",
]
