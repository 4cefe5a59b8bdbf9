"""Key-partitioned scale-out over process-per-partition workers.

See DESIGN.md §13.  The public surface:

* :class:`PartitionedDatabase` — the logical database front end
* :class:`HashRouter` / :func:`make_router` — stable-hash key placement
* :func:`stable_hash` — the process-independent hash routing uses
"""

from repro.cluster.partitioned import PartitionedDatabase
from repro.cluster.router import (
    HashRouter,
    Router,
    make_router,
    stable_hash,
)
from repro.cluster.worker import TreeSpec

__all__ = [
    "PartitionedDatabase",
    "HashRouter",
    "Router",
    "TreeSpec",
    "make_router",
    "stable_hash",
]
