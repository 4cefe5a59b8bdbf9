"""Pretty-printer for flight-recorder dumps: op spans and the black box.

One recorder, one file format: a :meth:`FlightRecorder.dump
<repro.obs.flightrec.FlightRecorder.dump>` JSONL file.  Its ``op.<kind>``
events are the completed operation spans of a traced run
(``Database(op_tracing=True)``); every other event is a black-box event.
Both views render from the one file — the span table (with the point
events each span's thread recorded inside its time window) plus per-kind
latency attribution (latch waits vs lock waits vs IO vs WAL vs CPU), and
the black box itself, one line per event.

Usage::

    PYTHONPATH=src python -m repro.tools.trace blackbox.jsonl
    PYTHONPATH=src python -m repro.tools.trace --demo

``--demo`` runs a small seeded traced workload, dumps its database's
flight recorder to a temporary file and renders both views from that
file — a zero-setup way to see what ``op_tracing=True`` buys.
"""

from __future__ import annotations

from repro.harness.report import render_table
from repro.obs.export import load_jsonl
from repro.obs.spans import ATTRIBUTION_FIELDS, spans_from_events

__all__ = [
    "render_events",
    "render_flight_events",
    "render_span_attribution",
    "render_span_table",
]


def _us(ns: object) -> float:
    return float(ns or 0) / 1000.0


def render_span_table(spans: list[dict], *, limit: int = 40) -> str:
    """One row per span: identity plus the full attribution split."""
    rows = []
    for span in spans[-limit:]:
        rows.append(
            {
                "op": span.get("op_id"),
                "kind": span.get("kind"),
                "tree": span.get("tree", ""),
                "total_us": _us(span.get("total_ns")),
                "latch_us": _us(span.get("latch_wait_ns")),
                "lock_us": _us(span.get("lock_wait_ns")),
                "io_us": _us(span.get("io_ns")),
                "wal_us": _us(span.get("wal_ns")),
                "cpu_us": _us(span.get("cpu_ns")),
                "fixes": span.get("buffer_fixes", 0),
                "wal+": span.get("wal_appends", 0),
                "events": ",".join(e["name"] for e in span.get("events", ())),
            }
        )
    title = f"op spans ({len(spans)} total, last {len(rows)} shown)"
    if not rows:
        return f"{title}\n(no spans recorded)"
    return render_table(rows, title=title)


def render_span_attribution(spans: list[dict]) -> str:
    """Aggregate per-kind: where did each operation type spend time?"""
    agg: dict[str, dict[str, float]] = {}
    for span in spans:
        bucket = agg.setdefault(
            str(span.get("kind")),
            {"count": 0, "total_ns": 0.0, "cpu_ns": 0.0}
            | {f: 0.0 for f in ATTRIBUTION_FIELDS},
        )
        bucket["count"] += 1
        bucket["total_ns"] += float(span.get("total_ns") or 0)
        bucket["cpu_ns"] += float(span.get("cpu_ns") or 0)
        for f in ATTRIBUTION_FIELDS:
            bucket[f] += float(span.get(f) or 0)
    rows = []
    for kind in sorted(agg):
        bucket = agg[kind]
        total = bucket["total_ns"] or 1.0
        rows.append(
            {
                "kind": kind,
                "count": int(bucket["count"]),
                "total_ms": bucket["total_ns"] / 1e6,
                "latch%": 100.0 * bucket["latch_wait_ns"] / total,
                "lock%": 100.0 * bucket["lock_wait_ns"] / total,
                "io%": 100.0 * bucket["io_ns"] / total,
                "wal%": 100.0 * bucket["wal_ns"] / total,
                "cpu%": 100.0 * bucket["cpu_ns"] / total,
            }
        )
    if not rows:
        return "attribution\n(no spans recorded)"
    return render_table(rows, title="latency attribution by op kind")


def render_flight_events(events: list[dict], *, limit: int = 80) -> str:
    """The black box, one line per event, oldest first."""
    lines = [f"flight recorder ({len(events)} events)"]
    for event in events[-limit:]:
        seq = event.get("seq")
        name = event.get("name")
        data = {
            k: v
            for k, v in event.items()
            if k not in ("seq", "name", "data", "ts_ns", "thread")
        }
        nested = event.get("data")
        if isinstance(nested, dict):
            data.update(nested)
        rendered = " ".join(f"{k}={v!r}" for k, v in sorted(data.items()))
        lines.append(f"  #{seq:<6} {name:<28} {rendered}".rstrip())
    if len(events) > limit:
        lines.insert(1, f"  ... ({len(events) - limit} older omitted)")
    return "\n".join(lines)


def render_events(events: list[dict]) -> str:
    """Both views of one event stream: spans, attribution, black box."""
    spans = spans_from_events(events)
    blackbox = [e for e in events if not e["name"].startswith("op.")]
    return "\n\n".join(
        [
            render_span_table(spans),
            render_span_attribution(spans),
            render_flight_events(blackbox),
        ]
    )


def render_file(path: str) -> str:
    """Render a flight-recorder JSONL dump in both views."""
    events = load_jsonl(path)
    if not events:
        return f"{path}: empty"
    return render_events(events)


def _demo() -> str:
    """Run a tiny traced workload, dump its flight recorder to a file
    and render that file, as a dump taken from a live run would be."""
    import os
    import tempfile

    from repro.workload.scenario import run_scenario

    result = run_scenario(seed=7, ops=60, threads=2, op_tracing=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demo.jsonl")
        result.db.flightrec.dump(path)
        return render_file(path)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="pretty-print flight-recorder JSONL: spans + black box"
    )
    parser.add_argument(
        "paths", nargs="*", help="flight-recorder JSONL dumps to render"
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a small traced workload and render its spans",
    )
    args = parser.parse_args(argv)
    if not args.paths and not args.demo:
        parser.error("give at least one JSONL path, or --demo")
    outputs = [render_file(path) for path in args.paths]
    if args.demo:
        outputs.append(_demo())
    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
