"""Driving loop, result checking and the round (set-up → ops → recovery).

A *round* is one complete life of a target: generate inputs, build and
preload it, run the timed ops (checking every answer against the
model), crash and restart it, and check that what survived is exactly
the model.  A run is several rounds (``workloads.ROUNDS``).
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from spans import Recorder
from targets import EmbeddedTarget, OpFailed, ServedTarget
from workloads import BLOCK, RoundInputs, Spec


@dataclass
class Tally:
    """What one driver thread measured."""

    #: thread (the timed mix) | ingest | blocks | check
    role: str = "thread"
    thread: int = 0
    #: op kind -> latencies in ns, in execution order
    samples: dict = field(default_factory=dict)
    #: ops/s of each full block of ``BLOCK`` ops (time inside ops only)
    rates: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def _right_answer(kind, result, expected, part, parts, rids_of) -> bool:
    if kind == "get":
        return sorted(rids_of(result)) == expected
    if kind == "scan":
        # rows of other threads' keys come and go; this thread's must
        # be exactly its model's
        mine = [
            (key, rid)
            for key, rid in result
            if parts == 1 or key % parts == part
        ]
        return len(mine) == len(expected) and {
            rid: key for key, rid in mine
        } == expected
    return result == expected  # multi_get


def drive(
    run,
    ops: list,
    tally: Tally,
    part: int = 0,
    parts: int = 1,
    rec: Recorder | None = None,
    label: str | None = None,
) -> None:
    """Execute ``ops`` one after another, timing and checking each.

    The clock covers ``run`` only (begin → op → commit, retries
    included); checking the answer happens off the clock.
    """
    samples = tally.samples
    busy = 0
    in_block = 0
    for kind, arg, expected in ops:
        if rec is not None:
            rec.set_op(tally.attempted)
            rec.open("op")
        tally.attempted += 1
        t0 = perf_counter_ns()
        try:
            result = run(kind, arg)
        except OpFailed as exc:
            tally.fail(f"op failed: {exc}")
            continue
        finally:
            took = perf_counter_ns() - t0
            if rec is not None:
                rec.close()
        samples.setdefault(label or kind, []).append(took)
        busy += took
        in_block += 1
        if in_block == BLOCK:
            tally.rates.append(BLOCK * 1e9 / busy)
            busy = in_block = 0
        if expected is not None and not _right_answer(
            kind, result, expected, part, parts, run.rids_of
        ):
            tally.fail(f"wrong answer to {kind} {arg!r}")


def run_threads(target, thread_ops: list, rec) -> list:
    """One tally per driver thread; threads start together."""
    parts = len(thread_ops)
    runners = [target.runner(t) for t in range(parts)]
    tallies = [Tally(thread=t) for t in range(parts)]
    if parts == 1:
        drive(runners[0], thread_ops[0], tallies[0], rec=rec)
        return tallies
    errors: list = []
    barrier = threading.Barrier(parts)

    def work(t: int) -> None:
        try:
            barrier.wait()
            drive(runners[t], thread_ops[t], tallies[t], t, parts, rec)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=work, args=(t,), name=f"bench-{t}")
        for t in range(parts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return tallies


@dataclass
class Round:
    setup_s: float
    recovery_s: float
    tallies: list
    #: ops the target retried after a transaction abort
    retries: int
    #: traced rounds only ------------------------------------------------
    rec: Recorder | None = None
    #: per timed phase (ingest, the mix): span marks before and after,
    #: and the delta of the program's counters across it
    segments: list = field(default_factory=list)
    #: the counters as the last timed phase left them (gauges are read here)
    counters: dict = field(default_factory=dict)
    #: kind -> {"n", "delta": {counter: n}, "spans": per-thread windows}
    blocks: dict = field(default_factory=dict)
    vacuum_s: float = 0.0
    #: (height, pages) of the mix's tree before the crash, and its keys
    shape: tuple = (0, 0)
    live_keys: int = 0
    report: object = None

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies)

    def threads(self) -> list:
        """The tallies of the timed mix, one per driver thread."""
        return [t for t in self.tallies if t.role == "thread"]

    def all_samples(self) -> list:
        """Every timed op the caller waited for: the mix and the ingest."""
        return [
            ns
            for t in self.tallies
            if t.role in ("thread", "ingest")
            for samples in t.samples.values()
            for ns in samples
        ]

    def samples(self, kind: str, role: str = "thread") -> list:
        return [
            ns
            for t in self.tallies
            if t.role == role
            for ns in t.samples.get(kind, ())
        ]


def make_target(spec: Spec, root: str, inputs: RoundInputs, rec):
    if spec.kind == "served":
        return ServedTarget(root, rec)
    trees = [name for name, _ in inputs.preload + inputs.ingest]
    return EmbeddedTarget(spec, trees, rec)


def delta(after: dict, before: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def run_round(
    spec: Spec,
    root: str,
    inputs: RoundInputs,
    started: float,
    *,
    traced: bool = False,
) -> Round:
    """One round; ``started`` is when its input generation began.

    Order: preload, [timed ingest], [count blocks], the timed mix,
    crash + restart, verification.  The count blocks come before the
    mix so that they start from a tree only single-threaded work has
    touched: their counts then repeat exactly on every workload.
    """
    rec = Recorder() if traced else None
    # Everything allocated so far (the op lists above all) is parked
    # out of the collector's sight: a full collection no longer walks
    # it in the middle of somebody's op.
    gc.collect()
    gc.freeze()
    target = make_target(spec, root, inputs, rec)
    try:
        target.preload(inputs.preload)
        result = Round(
            setup_s=perf_counter() - started,
            recovery_s=0.0,
            tallies=[],
            retries=0,
            rec=rec,
        )
        if inputs.ingest:
            _segment(target, result, _ingest, target, inputs, result)
        if inputs.count_blocks:
            _count_blocks(target, inputs, result)
        result.tallies += _segment(
            target, result, run_threads, target, inputs.thread_ops, rec
        )
        result.retries = target.retries
        if traced and isinstance(target, EmbeddedTarget):
            t0 = perf_counter()
            target.runner(0)("vacuum", None)
            result.vacuum_s = perf_counter() - t0
        result.shape = target.shape()
        result.live_keys = len(next(iter(inputs.live.values())))
        result.recovery_s = target.recover()
        result.report = target.report
        check = Tally(role="check", attempted=2 * len(inputs.live))
        for problem in target.verify(inputs.live, inputs.everything):
            check.fail(problem)
        result.tallies.append(check)
        return result
    finally:
        target.close()
        gc.unfreeze()


def _segment(target, result: Round, fn, *args):
    """Run a timed phase; when tracing, note its spans and counter deltas."""
    rec = result.rec
    if rec is None:
        return fn(*args)
    marks, before = rec.lengths(), target.counters()
    out = fn(*args)
    result.counters = target.counters()
    result.segments.append(
        (marks, rec.lengths(), delta(result.counters, before))
    )
    return out


def _ingest(target, inputs: RoundInputs, result: Round) -> None:
    tally = Tally(role="ingest")
    for tree, batches in inputs.ingest:
        drive(
            target.runner(0, tree),
            [("multi_put", batch, None) for batch in batches],
            tally,
            rec=result.rec,
            label="ingest",
        )
    result.tallies.append(tally)


def _count_blocks(target, inputs: RoundInputs, result: Round) -> None:
    """Single-thread blocks of one op type each, so counts repeat exactly.

    The untraced twin of a traced round runs them too (without reading
    any counter): both rounds must reach the mix with the same tree.
    """
    rec = result.rec
    run = target.runner(0)
    tally = Tally(role="blocks")
    for kind, ops in inputs.count_blocks.items():
        if rec is None:
            drive(run, ops, tally, 0, len(inputs.thread_ops))
            continue
        mark, before = rec.lengths(), target.counters()
        drive(run, ops, tally, 0, len(inputs.thread_ops), rec)
        result.blocks[kind] = {
            "n": len(ops),
            "delta": delta(target.counters(), before),
            "spans": rec.window(mark),
        }
    result.tallies.append(tally)
