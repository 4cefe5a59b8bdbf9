"""The GiST core: extension interface, tree, cursor, maintenance.

Node sequence numbers are LSNs (section 10.1): a split stamps its own
record's LSN, so NSNs are recovered with the log.
"""

from repro.gist.checker import CheckReport, check_tree
from repro.gist.cursor import SearchCursor
from repro.gist.extension import GiSTExtension
from repro.gist.maintenance import VacuumReport, vacuum
from repro.gist.stack import StackEntry
from repro.gist.stats import TreeStats
from repro.gist.tree import GiST

__all__ = [
    "CheckReport",
    "GiST",
    "GiSTExtension",
    "SearchCursor",
    "StackEntry",
    "TreeStats",
    "VacuumReport",
    "check_tree",
    "vacuum",
]
