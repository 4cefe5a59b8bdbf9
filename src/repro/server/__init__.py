"""Network serving layer: admission control, deadlines, shed-don't-collapse.

``repro.server`` puts a TCP front end over a
:class:`~repro.database.Database` or
:class:`~repro.cluster.partitioned.PartitionedDatabase`.  Its job is
not to add query power — the backends already have that — but to keep
the system *well-behaved past saturation*:

* **Admission control** — bounded FIFO queues per operation class
  (point ops vs scans).  A full queue answers with an explicit
  ``RetryLater`` frame carrying a backoff hint; nothing is ever
  silently dropped.
* **Deadline propagation** — clients stamp an absolute deadline on
  every request; the server sheds expired work *at dequeue* (before
  wasting a tree descent) and forwards the remaining budget into the
  cluster RPC timeout, so a hung partition trips its circuit breaker
  instead of hanging the request forever.
* **Exact accounting** — every offered request ends in exactly one
  bucket (completed / rejected / shed / failed); the serving benchmark
  asserts the sums balance to the op.

See DESIGN.md §14 for the admission pipeline and the breaker state
machine, and ``benchmarks/bench_serving.py`` for the overload gate.
"""

from repro.server.admission import AdmissionQueue, Ticket
from repro.server.backend import ClusterBackend, LocalBackend
from repro.server.client import PipelinedClient, ReproClient
from repro.server.server import DatabaseServer

__all__ = [
    "AdmissionQueue",
    "ClusterBackend",
    "DatabaseServer",
    "LocalBackend",
    "PipelinedClient",
    "ReproClient",
    "Ticket",
]
