"""Benchmark-side spans: recorded around public calls, never inside them.

A span is ``(name, start, end, parent, op)``.  Spans of one operation
share its op id; ``parent`` is the span that was open on the same thread
when this one started.  Everything stays in memory until the run ends
(:meth:`Recorder.write_jsonl`).

Extension methods are called ~100 times per tree operation, so they are
not stored one span per call: their call counts and busy time are
accumulated and attached to the enclosing span as one *aggregate* child
per method (``calls`` > 0, ``end − start`` = summed busy time, ``start``
synthetic).  Self-time arithmetic treats them like any other child.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter_ns

#: extension methods the timing subclass wraps; none of the shipped
#: extensions calls one of these from another, so no time is counted twice
EXT_METHODS = (
    "consistent",
    "union",
    "penalty",
    "pick_split",
    "same",
    "eq_query",
    "normalize_key",
    "organize",
    "multi_eq_query",
)

# span fields (a list, not a dataclass: ~10 are written per traced op)
NAME, START, END, PARENT, OP, CALLS = range(6)


class _ThreadState:
    __slots__ = ("spans", "stack", "op", "ext")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        #: method name -> [calls, busy ns] since the last flush
        self.ext: dict[str, list[int]] = {}


class Recorder:
    """Per-thread span stacks; threads never share a list."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- recording -----------------------------------------------------
    def set_op(self, op_id: int) -> None:
        self._state().op = op_id

    def open(self, name: str) -> None:
        state = self._state()
        if state.ext and state.stack:
            self._flush_ext(state, state.stack[-1])
        parent = state.stack[-1] if state.stack else -1
        state.stack.append(len(state.spans))
        state.spans.append([name, perf_counter_ns(), 0, parent, state.op, 0])

    def close(self) -> None:
        end = perf_counter_ns()
        state = self._state()
        idx = state.stack.pop()
        state.spans[idx][END] = end
        if state.ext:
            self._flush_ext(state, idx)

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        self.open(name)
        try:
            return fn(*args)
        finally:
            self.close()

    def ext(self, method: str, busy_ns: int) -> None:
        state = self._state()
        if not state.stack:
            return  # preload and recovery run outside any span
        acc = state.ext
        slot = acc.get(method)
        if slot is None:
            acc[method] = [1, busy_ns]
        else:
            slot[0] += 1
            slot[1] += busy_ns

    @staticmethod
    def _flush_ext(state: _ThreadState, parent: int) -> None:
        start = state.spans[parent][START]
        for method, (calls, busy) in state.ext.items():
            state.spans.append(
                ["ext." + method, start, start + busy, parent, state.op, calls]
            )
        state.ext = {}

    # -- reading -------------------------------------------------------
    def threads(self) -> list[list[list]]:
        """One span list per recording thread (parents index into it)."""
        with self._lock:
            return [state.spans for state in self._states]

    def lengths(self) -> list[int]:
        """A mark: how many spans each thread has recorded so far."""
        return [len(spans) for spans in self.threads()]

    def window(self, since: list[int], until: list[int] | None = None):
        """Per thread, the spans recorded between two marks.

        Take marks only while no span is open, so every parent of a
        span in the window is in the window too; parents are re-based
        to index into the returned lists.
        """
        out = []
        for t, spans in enumerate(self.threads()):
            start = since[t] if t < len(since) else 0
            stop = until[t] if until is not None and t < len(until) else None
            out.append(
                [
                    [*span[:PARENT], max(-1, span[PARENT] - start), *span[PARENT + 1 :]]
                    for span in spans[start:stop]
                ]
            )
        return out

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span; returns how many were written."""
        written = 0
        with open(path, "w") as fh:
            for t, spans in enumerate(self.threads()):
                for i, span in enumerate(spans):
                    parent = span[PARENT]
                    row = {
                        "id": f"t{t}:{i}",
                        "name": span[NAME],
                        "start": span[START],
                        "end": span[END],
                        "parent": None if parent < 0 else f"t{t}:{parent}",
                        "op": span[OP],
                    }
                    if span[CALLS]:
                        row["calls"] = span[CALLS]
                    fh.write(json.dumps(row) + "\n")
                    written += 1
        return written


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus what its direct children cover.

    Children of one span were recorded on one thread's stack, so they
    never overlap and their durations simply add.  Clamped at zero:
    clock reads around a child can land a few ns outside its parent's.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return [max(0, ns) for ns in own]


def totals(threads: list[list[list]]) -> dict[str, dict[str, int]]:
    """Per span name: ``spans``, ``calls``, ``dur_ns`` and ``self_ns``."""
    out: dict[str, dict[str, int]] = {}
    for spans in threads:
        for span, own in zip(spans, self_times(spans)):
            row = out.setdefault(
                span[NAME], {"spans": 0, "calls": 0, "dur_ns": 0, "self_ns": 0}
            )
            row["spans"] += 1
            row["calls"] += span[CALLS] or 1
            row["dur_ns"] += span[END] - span[START]
            row["self_ns"] += own
    return out


def op_coverage(spans: list[list]) -> list[float]:
    """Per ``op`` span: share of its wall time its direct children cover."""
    covered: dict[int, int] = {}
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] = (
                covered.get(span[PARENT], 0) + span[END] - span[START]
            )
    return [
        covered.get(i, 0) / max(1, span[END] - span[START])
        for i, span in enumerate(spans)
        if span[NAME] == "op"
    ]


def timed_extension(base_cls, recorder: Recorder):
    """An instance of a subclass of ``base_cls`` that times every call.

    Handed to ``create_tree``/``restart`` in place of the plain
    extension; the tree cannot tell the difference.
    """

    def wrap(method: str):
        base = getattr(base_cls, method)

        def timed(self, *args):
            t0 = perf_counter_ns()
            try:
                return base(self, *args)
            finally:
                recorder.ext(method, perf_counter_ns() - t0)

        timed.__name__ = method
        return timed

    cls = type(
        "Timed" + base_cls.__name__,
        (base_cls,),
        {method: wrap(method) for method in EXT_METHODS},
    )
    return cls()
