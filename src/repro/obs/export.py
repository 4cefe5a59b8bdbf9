"""JSONL export/load helpers shared by the observability subsystems.

The flight recorder (op spans included) and the history recorder
persist as JSON Lines: one self-describing JSON object per line, sorted
keys, no trailing whitespace.  That format is greppable, appendable,
diffable, and — because key order is canonical — two dumps of the same
event sequence are byte-identical, which is what lets a chaos-trial
black box be compared bit-for-bit across reruns of the same seed.

:func:`canonical_events` strips the non-deterministic fields (wall-clock
timestamps, thread idents) from a dumped event stream, leaving exactly
the replay-comparable core ``(seq, name, data)``.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

__all__ = [
    "canonical_events",
    "dump_jsonl",
    "dumps_line",
    "load_jsonl",
]


def dumps_line(obj: dict) -> str:
    """One canonical JSONL line (sorted keys, compact separators)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=str
    )


def dump_jsonl(path: str, objs: Iterable[dict]) -> str:
    """Write ``objs`` to ``path`` as canonical JSONL; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(dumps_line(obj))
            fh.write("\n")
    return path


def load_jsonl(path: str) -> list[dict]:
    """Read a JSONL file back into a list of dicts (blank lines skipped)."""
    out: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


#: event fields excluded from the canonical replay form: wall-clock
#: timestamps and thread idents differ between otherwise identical runs
NONDETERMINISTIC_FIELDS = ("ts_ns", "thread")


def canonical_events(
    events: Sequence[dict],
) -> list[tuple[int, str, str]]:
    """The replay-comparable core of a dumped event stream.

    Returns ``(seq, name, data-as-canonical-json)`` triples, ordered by
    ``seq``.  Two runs of the same seeded single-threaded scenario must
    produce equal canonical forms (asserted by the chaos black-box
    tests); anything that varies between such runs is a determinism bug
    in the recorder's callers.
    """
    core = []
    for event in events:
        data = {
            k: v
            for k, v in event.items()
            if k not in ("seq", "name", *NONDETERMINISTIC_FIELDS)
        }
        core.append(
            (int(event.get("seq", 0)), str(event.get("name", "")),
             dumps_line(data))
        )
    core.sort(key=lambda t: t[0])
    return core
