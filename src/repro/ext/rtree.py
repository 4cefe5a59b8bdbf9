"""R-tree as a GiST extension ([Gut84] via [HNP95]).

Keys are 2-D rectangles (points are degenerate rectangles); bounding
predicates are minimum bounding rectangles; splits use the R*-tree's
topological split ([BKSS90]: Beckmann, Kriegel, Schneider and Seeger,
SIGMOD 1990), which leaves sibling MBRs far less overlap than
Guttman's quadratic split.  This is the extension on which [KB95] — the
direct ancestor of the paper's concurrency protocol — was originally
developed, so the spatial benchmarks exercise exactly the non-linear,
overlapping key space the NSN protocol was invented for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.gist.extension import GiSTExtension
from repro.storage.page import register_immutable_type


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle [xlo, xhi] x [ylo, yhi]."""

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        # written so a NaN corner fails too: a NaN rectangle would
        # intersect every query yet vanish from some unions
        if not (self.xlo <= self.xhi and self.ylo <= self.yhi):
            raise ValueError(f"degenerate rectangle {self}")

    @staticmethod
    def point(x: float, y: float) -> "Rect":
        """A degenerate (single-point) instance."""
        return Rect(x, y, x, y)

    def intersects(self, other: "Rect") -> bool:
        """Intersection test."""
        return not (
            self.xhi < other.xlo
            or other.xhi < self.xlo
            or self.yhi < other.ylo
            or other.yhi < self.ylo
        )

    def contains(self, other: "Rect") -> bool:
        """Containment test."""
        return (
            self.xlo <= other.xlo
            and self.ylo <= other.ylo
            and self.xhi >= other.xhi
            and self.yhi >= other.yhi
        )

    def union_with(self, other: "Rect") -> "Rect":
        """The bounding union of self and other."""
        return Rect(
            min(self.xlo, other.xlo),
            min(self.ylo, other.ylo),
            max(self.xhi, other.xhi),
            max(self.yhi, other.yhi),
        )

    @property
    def area(self) -> float:
        """The area (zero for points and lines)."""
        return (self.xhi - self.xlo) * (self.yhi - self.ylo)


class RTreeExtension(GiSTExtension):
    """2-D spatial extension with R*-style topological splits.

    The template calls ``consistent`` and ``penalty`` once per entry of
    every node it visits and ``covers`` on every insert, so each reads
    the four corners directly and none builds a throw-away :class:`Rect`.
    """

    name = "rtree"

    def consistent(self, pred: object, query: object) -> bool:
        """Intersection test between predicates (contract: :meth:`GiSTExtension.consistent`)."""
        return (
            pred.xlo <= query.xhi
            and query.xlo <= pred.xhi
            and pred.ylo <= query.yhi
            and query.ylo <= pred.yhi
        )

    def union(self, preds: Sequence[object]) -> object:
        """Tightest covering predicate of the inputs (contract: :meth:`GiSTExtension.union`)."""
        if not preds:
            raise ValueError("union of no predicates")
        first = preds[0]
        xlo, ylo, xhi, yhi = first.xlo, first.ylo, first.xhi, first.yhi
        for pred in preds:
            # strict tests keep the earlier corner on ties, as min/max do
            if pred.xlo < xlo:
                xlo = pred.xlo
            if pred.ylo < ylo:
                ylo = pred.ylo
            if pred.xhi > xhi:
                xhi = pred.xhi
            if pred.yhi > yhi:
                yhi = pred.yhi
        return Rect(xlo, ylo, xhi, yhi)

    def penalty(self, bp: object, key: object) -> float:
        """Area growth of ``bp`` to admit ``key``: the float
        ``bp.union_with(key).area - bp.area``, and ``0.0`` whenever
        ``bp`` covers ``key`` (contract: :meth:`GiSTExtension.penalty`)."""
        xlo, ylo, xhi, yhi = bp.xlo, bp.ylo, bp.xhi, bp.yhi
        kxlo, kylo, kxhi, kyhi = key.xlo, key.ylo, key.xhi, key.yhi
        if xlo <= kxlo and ylo <= kylo and xhi >= kxhi and yhi >= kyhi:
            return 0.0
        return (max(xhi, kxhi) - min(xlo, kxlo)) * (
            max(yhi, kyhi) - min(ylo, kylo)
        ) - (xhi - xlo) * (yhi - ylo)

    def covers(self, bp: object, key: object) -> bool:
        """True if ``bp`` already bounds ``key`` (contract: :meth:`GiSTExtension.covers`)."""
        # a root leaf has no BP, and multi_put asks about it all the same
        return bp is None or bp.contains(key)

    def pick_split(
        self, preds: Sequence[object]
    ) -> tuple[list[int], list[int]]:
        """The R*-tree's topological split ([BKSS90] section 4.2).

        Each axis is swept twice, with the entries sorted by their low
        and by their high coordinate; every sweep offers the
        distributions "first ``k`` / the rest" for ``k`` in
        ``[m, n - m]``, ``m = max(1, 2n // 5)``.  The axis whose
        distributions have the least summed margin wins; on it, the
        distribution with the least overlap between the two MBRs is
        taken, ties going to the smaller total area and then to the
        earlier candidate.  O(n log n) and deterministic; the running
        MBRs are plain tuples.
        """
        n = len(preds)
        if n < 2:
            raise ValueError("cannot split fewer than two entries")
        m = max(1, 2 * n // 5)
        cuts = range(m, n - m + 1)
        boxes = [(p.xlo, p.ylo, p.xhi, p.yhi) for p in preds]
        best_margin, best_sweeps = None, []
        for lo, hi in ((0, 2), (1, 3)):
            sweeps = []
            margin = 0.0
            for first, then in ((lo, hi), (hi, lo)):
                order = sorted(
                    range(n), key=lambda i: (boxes[i][first], boxes[i][then])
                )
                head = _running_mbrs(boxes, order)
                tail = _running_mbrs(boxes, order[::-1])
                for k in cuts:
                    a, b = head[k - 1], tail[n - k - 1]
                    margin += a[2] - a[0] + a[3] - a[1] + b[2] - b[0] + b[3] - b[1]
                sweeps.append((order, head, tail))
            if best_margin is None or margin < best_margin:
                best_margin, best_sweeps = margin, sweeps
        best = None
        for order, head, tail in best_sweeps:
            for k in cuts:
                a, b = head[k - 1], tail[n - k - 1]
                overlap = max(0.0, min(a[2], b[2]) - max(a[0], b[0])) * max(
                    0.0, min(a[3], b[3]) - max(a[1], b[1])
                )
                area = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (
                    b[3] - b[1]
                )
                if best is None or overlap < best[0] or (
                    overlap == best[0] and area < best[1]
                ):
                    best = (overlap, area, order, k)
        _, _, order, k = best
        return sorted(order[:k]), sorted(order[k:])

    def same(self, a: object, b: object) -> bool:
        """Predicate equality (contract: :meth:`GiSTExtension.same`)."""
        return a == b

    def eq_query(self, key: object) -> object:
        # Rectangle equality is navigated by overlap (a strict superset
        # of equality, so navigation can never miss the exact key).
        """Exact-match predicate for a key (contract: :meth:`GiSTExtension.eq_query`)."""
        return key


# Rect is a frozen dataclass of floats: page snapshots may share
# instances instead of deep-copying them on every flush/eviction.
register_immutable_type(Rect)


def _running_mbrs(boxes: list, order: list) -> list:
    """``[mbr(order[:1]), mbr(order[:2]), …]`` as corner tuples."""
    xlo, ylo, xhi, yhi = boxes[order[0]]
    out = []
    for i in order:
        bxlo, bylo, bxhi, byhi = boxes[i]
        if bxlo < xlo:
            xlo = bxlo
        if bylo < ylo:
            ylo = bylo
        if bxhi > xhi:
            xhi = bxhi
        if byhi > yhi:
            yhi = byhi
        out.append((xlo, ylo, xhi, yhi))
    return out
