"""Plain-text table rendering for benchmark output.

The benchmark scripts print their results as aligned ASCII tables so
``pytest benchmarks/ --benchmark-only`` output doubles as the data
tables recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def render_table(
    rows: Sequence[Mapping[str, object]],
    *,
    title: str | None = None,
    columns: Sequence[str] | None = None,
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title or ''}\n(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    widths = {c: len(str(c)) for c in cols}
    for row in rows:
        for c in cols:
            widths[c] = max(widths[c], len(_fmt(row.get(c, ""))))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(widths[c]) for c in cols)
    lines.append(header)
    lines.append("  ".join("-" * widths[c] for c in cols))
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in cols)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)

