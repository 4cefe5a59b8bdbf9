"""Traversal stack entries.

Both search (Figure 3) and insertion (Figure 4) remember, for every node
pointer they intend to visit or may have to revisit, the page id together
with a *memorized sequence number*: the parent's page LSN as of the
moment the pointer was read, or the end-of-log LSN for the root (NSNs
are LSNs, section 10.1).  Comparing it against the node's NSN
at visit time is what makes missed splits detectable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.page import PageId


@dataclass
class StackEntry:
    """One stacked node pointer.

    ``memo`` is the memorized LSN for split detection.
    For insertion stacks (the path of visited ancestors), ``nsn_seen``
    additionally records the node's NSN at visit time, which the back-up
    phases compare to decide whether the ancestor itself has split since
    (Figure 4's ``NSN(parent) changed since first visited`` test).
    """

    pid: PageId
    memo: int
    nsn_seen: int = -1

    def copy(self) -> "StackEntry":
        """An independent copy."""
        return StackEntry(self.pid, self.memo, self.nsn_seen)
