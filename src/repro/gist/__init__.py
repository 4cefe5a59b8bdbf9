"""The GiST core: extension interface, tree, cursor, maintenance."""

from repro.gist.checker import CheckReport, check_tree
from repro.gist.cursor import SearchCursor
from repro.gist.extension import GiSTExtension
from repro.gist.maintenance import VacuumReport, vacuum
from repro.gist.nsn import CounterNSN, LSNBasedNSN, NSNSource
from repro.gist.stack import StackEntry
from repro.gist.stats import TreeStats
from repro.gist.tree import GiST

__all__ = [
    "CheckReport",
    "CounterNSN",
    "GiST",
    "GiSTExtension",
    "LSNBasedNSN",
    "NSNSource",
    "SearchCursor",
    "StackEntry",
    "TreeStats",
    "VacuumReport",
    "check_tree",
    "vacuum",
]
