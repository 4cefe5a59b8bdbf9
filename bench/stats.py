"""Order statistics, spreads and the environment stamp.

Kept free of any import from the program under test so the helpers can
be unit-tested (``bench/tests``) in a directory that has no ``src/``.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

#: tried from the top; the first one the sample supports is reported
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation.

    Same rule as ``numpy.percentile``'s default: rank ``q/100·(n−1)``
    between the two neighbouring order statistics.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0)


def tail_percentile(values, want: float = 99.0):
    """``(q, value)``: the highest percentile ≤ ``want`` the sample supports.

    A tail percentile with fewer than :data:`MIN_BEYOND` samples beyond
    it is one or two outliers, not a statistic; short (smoke) runs fall
    back to the next candidate down instead of reporting it.
    """
    n = len(values)
    for q in TAIL_CANDIDATES:
        if q <= want and samples_beyond(n, q) >= MIN_BEYOND:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def spread(values) -> dict:
    """Median, quartiles and the two relative spreads of repeated runs.

    ``iqr_rel`` is the driver's acceptance statistic (distance between
    the quartiles of ``statistics.quantiles(values, n=4)`` as a share of
    the median); ``range_rel`` is ``(max − min) / median``.
    """
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    scale = abs(med) or 1.0
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_rel": (q3 - q1) / scale,
        "range_rel": (max(values) - min(values)) / scale,
    }


def load_average() -> float:
    return os.getloadavg()[0]


def environment(root: str) -> dict:
    """What a reader needs to recognise a noisy or foreign run afterwards."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        # the driver's checkout is not a git repository
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count() or 1,
        "load_1m_start": load_average(),
    }
