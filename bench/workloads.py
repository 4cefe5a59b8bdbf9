"""The five workloads: sizes, op mixes and seeded input generation.

Inputs are a pure function of ``(workload, seed, seconds)``: the key
sets, the operation lists and the result every read must return are all
produced here, before anything is timed, from a model of the live
``(key, rid)`` pairs.  The program under test only ever sees the
generated operations.

Every run is ``ROUNDS`` independent rounds (fresh database, preload,
timed ops, crash + restart, verification): the set-up and recovery
times reported are medians over the rounds, and latencies are pooled
over three separately built trees, so one lucky or unlucky tree shape
does not decide a run.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

ROUNDS = 3

#: ops per stratified block: every block holds exactly the mix's share
#: of each op type (in seeded order), so block times differ by keys only
BLOCK = 100


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    #: which target drives it: embedded | batch | iobound | served
    kind: str
    ext: str
    threads: int
    #: keys preloaded per round before the clock starts
    preload: int
    #: timed ops per second of ``--seconds``, summed over rounds and
    #: threads; sized so the timed phases last ≈ ``--seconds`` on the
    #: reference box (2 cores, see README)
    ops_per_second: int
    #: percent of each op type; sums to 100
    mix: dict
    #: ops between vacuum passes (0: never)
    vacuum_every: int = 0
    #: single-thread ops per op type in the traced run's count blocks
    count_block: int = 500
    #: batch_btree only: trees ingested per round and keys per tree
    ingest_trees: int = 0
    ingest_keys: int = 0
    #: the keys the trees are built from depend on the round only, not
    #: on the seed (which then varies the op stream alone).  Set where
    #: equally random trees differ so much in shape that the luck of the
    #: build, not the code, would decide a run: an R-tree's read cost
    #: varies 2× between seeds (top-level MBR overlap is fixed by its
    #: first few hundred inserts), a B-tree's by 1%.
    fixed_trees: bool = False


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="embedded_btree",
            why="CPU-bound B-tree in one thread, all pages cached: "
            "ext, gist, lock, txn and WAL append do the work; "
            "storage, cluster and server do none",
            kind="embedded",
            ext="btree",
            threads=1,
            preload=8000,
            ops_per_second=3000,
            mix={"get": 50, "insert": 25, "delete": 10, "scan": 15},
            vacuum_every=5000,
        ),
        Spec(
            name="embedded_rtree",
            why="same shape on the R-tree: overlapping BPs, multi-path "
            "descent, penalty/pick_split; a B-tree-only shortcut "
            "reads as no change here, a gist tax as a loss",
            kind="embedded",
            ext="rtree",
            threads=1,
            preload=4000,
            ops_per_second=2400,
            mix={"get": 40, "insert": 25, "delete": 10, "scan": 25},
            vacuum_every=4000,
            fixed_trees=True,
        ),
        Spec(
            name="batch_btree",
            why="multi_put ingest of fresh trees, then reads beside "
            "small batches on the tree it left: a batch-path gain "
            "that costs later reads, or the reverse, shows only here",
            kind="batch",
            ext="btree",
            threads=1,
            preload=0,
            ops_per_second=100,
            mix={"get": 50, "multi_get": 20, "scan": 20, "multi_put": 10},
            count_block=100,
            ingest_trees=2,
            ingest_keys=16000,
            fixed_trees=True,
        ),
        Spec(
            name="iobound_btree",
            why="the paper's regime: 1 ms page I/O, 2 ms log flush, "
            "pool a tenth of the tree, 2 threads; storage, wal "
            "and waits dominate, CPU is under a tenth",
            kind="iobound",
            ext="btree",
            threads=2,
            preload=8000,
            ops_per_second=300,
            mix={"get": 60, "insert": 30, "scan": 10},
            count_block=200,
        ),
        Spec(
            name="served_btree",
            why="the same insert-built tree behind python -m "
            "repro.server, 2 sequential client connections: "
            "framing, pickle, admission and worker hand-off",
            kind="served",
            ext="btree",
            threads=2,
            preload=8000,
            ops_per_second=1800,
            mix={"get": 60, "insert": 30, "scan": 10},
        ),
    )
}

#: the ladder's op stream (traced run of served_btree): one stream,
#: driven at the database, cluster and server rungs
LADDER = Spec(
    name="ladder",
    why="one op stream at every rung, so rung-to-rung differences are "
    "the layers' taxes",
    kind="embedded",
    ext="btree",
    threads=1,
    preload=8000,
    ops_per_second=0,
    mix={"get": 40, "insert": 40, "scan": 20},
)
LADDER_OPS = 1500

#: keys per tree in the build-path probe (traced run of batch_btree)
PROBE_KEYS = 8000
PROBE_GETS = 300

MULTI = 32  # keys per multi_get / multi_put op in batch_btree's read mix
INGEST_BATCH = 500
SCAN_ROWS = 40  # B-tree interval width is set to return about this many


# ----------------------------------------------------------------------
# models of the live (key, rid) pairs
# ----------------------------------------------------------------------
class _Model:
    """Live pairs plus what is needed to draw from them at random."""

    def __init__(self, rng: random.Random, part: int, parts: int) -> None:
        self.rng = rng
        #: this model owns keys ≡ part (mod parts); concurrent threads
        #: own disjoint keys, so each one's reads have one right answer
        self.part, self.parts = part, parts
        self.live: dict = {}
        self._keys: list = []
        self._pos: dict = {}
        self._next_rid = part

    def new_rid(self) -> int:
        rid = self._next_rid
        self._next_rid += self.parts
        return rid

    def add(self, key) -> tuple:
        rid = self.new_rid()
        self.live[key] = rid
        self._pos[key] = len(self._keys)
        self._keys.append(key)
        return key, rid

    def remove(self, key) -> tuple:
        rid = self.live.pop(key)
        pos = self._pos.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[pos] = last
            self._pos[last] = pos
        return key, rid

    def some_live(self):
        return self._keys[self.rng.randrange(len(self._keys))]


class BTreeModel(_Model):
    """Integer keys in ``[0, SPACE)``; scans are closed intervals."""

    SPACE = 1_000_000

    def __init__(self, rng, part, parts, scan_width: int) -> None:
        super().__init__(rng, part, parts)
        self.scan_width = scan_width
        self._sorted: list[int] = []

    def fresh(self) -> int:
        while True:
            key = (
                self.rng.randrange(self.SPACE // self.parts) * self.parts
                + self.part
            )
            if key not in self.live:
                return key

    def add(self, key):
        insort(self._sorted, key)
        return super().add(key)

    def remove(self, key):
        del self._sorted[bisect_left(self._sorted, key)]
        return super().remove(key)

    def get(self, key):
        rid = self.live.get(key)
        return key, ([] if rid is None else [rid])

    def scan(self):
        from repro import Interval

        lo = self.rng.randrange(self.SPACE - self.scan_width)
        hi = lo + self.scan_width
        keys = self._sorted[
            bisect_left(self._sorted, lo) : bisect_right(self._sorted, hi)
        ]
        return Interval(lo, hi), {self.live[k]: k for k in keys}

    def everything(self):
        from repro import Interval

        return Interval(0, self.SPACE)


class RTreeModel(_Model):
    """Unit squares at integer corners of a ``SIDE``×``SIDE`` space.

    A GiST R-tree answers "equal" by overlap, so a get returns every
    live square that touches the probe (closed rectangles: the eight
    neighbours too) and the model answers the same way.
    """

    SIDE = 1000
    WINDOW = 20
    _CELL = 5  # 32×32 grid buckets keep the expected-result lookups short

    def __init__(self, rng, part, parts) -> None:
        super().__init__(rng, part, parts)
        self._grid: dict = {}

    @staticmethod
    def _rect(x: int, y: int, side: int = 1):
        from repro import Rect

        return Rect(x, y, x + side, y + side)

    def fresh(self):
        while True:
            x = self.rng.randrange(self.SIDE - 1)
            y = self.rng.randrange(self.SIDE - 1)
            key = self._rect(x, y)
            if key not in self.live:
                return key

    def add(self, key):
        cell = (int(key.xlo) >> self._CELL, int(key.ylo) >> self._CELL)
        self._grid.setdefault(cell, set()).add(key)
        return super().add(key)

    def remove(self, key):
        cell = (int(key.xlo) >> self._CELL, int(key.ylo) >> self._CELL)
        self._grid[cell].discard(key)
        return super().remove(key)

    def _touching(self, query) -> dict:
        shift = self._CELL
        found = {}
        for cx in range(
            (int(query.xlo) - 1) >> shift, (int(query.xhi) >> shift) + 1
        ):
            for cy in range(
                (int(query.ylo) - 1) >> shift, (int(query.yhi) >> shift) + 1
            ):
                for key in self._grid.get((cx, cy), ()):
                    if key.intersects(query):
                        found[self.live[key]] = key
        return found

    def get(self, key):
        return key, sorted(self._touching(key))

    def scan(self):
        x = self.rng.randrange(self.SIDE - self.WINDOW)
        y = self.rng.randrange(self.SIDE - self.WINDOW)
        query = self._rect(x, y, self.WINDOW)
        return query, self._touching(query)

    def everything(self):
        return self._rect(0, 0, self.SIDE)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
# An op is (kind, argument, expected):
#   get        key            sorted rids
#   scan       query          {rid: key} (own keys only, see _Model.part)
#   insert     (key, rid)     None
#   delete     (key, rid)     None
#   multi_get  [key]          {key: [rid]}
#   multi_put  [(key, rid)]   None
#   vacuum     None           None
def _one_op(model: _Model, kind: str) -> tuple:
    rng = model.rng
    if kind == "get":
        # one probe in ten is for a key that is not there
        key = model.fresh() if rng.random() < 0.1 else model.some_live()
        return ("get", *model.get(key))
    if kind == "scan":
        return ("scan", *model.scan())
    if kind == "insert":
        return ("insert", model.add(model.fresh()), None)
    if kind == "delete":
        return ("delete", model.remove(model.some_live()), None)
    if kind == "multi_get":
        keys = sorted({model.some_live() for _ in range(MULTI)})
        return ("multi_get", keys, {k: [model.live[k]] for k in keys})
    if kind == "multi_put":
        return ("multi_put", [model.add(model.fresh()) for _ in range(MULTI)], None)
    raise ValueError(f"unknown op kind {kind!r}")


def _mixed(model: _Model, mix: dict, n_ops: int, vacuum_every: int) -> list:
    """``n_ops`` ops in stratified blocks of :data:`BLOCK` (rounded up)."""
    pattern = [kind for kind, pct in mix.items() for _ in range(pct)]
    ops: list = []
    for block in range(1, -(-n_ops // BLOCK) + 1):
        model.rng.shuffle(pattern)
        ops.extend(_one_op(model, kind) for kind in pattern)
        if vacuum_every and block % (vacuum_every // BLOCK) == 0:
            ops.append(("vacuum", None, None))
    return ops


@dataclass
class RoundInputs:
    """Everything one round feeds the program, and what must come back."""

    #: ``[(tree name, [(key, rid)])]`` loaded before the clock starts
    preload: list
    #: batch_btree: ``[(tree name, [[(key, rid)] per batch])]``, timed
    ingest: list
    #: traced run only: ``{kind: [op]}`` single-type blocks, run by one
    #: thread on the freshly built tree, before the mix
    count_blocks: dict
    #: one op list per driver thread
    thread_ops: list
    #: ``{tree name: {key: rid}}`` once everything above has run
    live: dict
    #: a query every live key of a tree satisfies
    everything: object


def _models(spec: Spec, rng: random.Random, parts: int, keys_hint: int) -> list:
    if spec.ext == "rtree":
        return [RTreeModel(rng, p, parts) for p in range(parts)]
    width = SCAN_ROWS * BTreeModel.SPACE // max(1, keys_hint)
    return [BTreeModel(rng, p, parts, width) for p in range(parts)]


def generate_round(
    spec: Spec, seed: int, round_no: int, n_ops: int, with_blocks: bool
) -> RoundInputs:
    """Inputs of one round; ``n_ops`` is the round's total over threads."""
    rng = random.Random(
        f"{spec.name}:{round_no}"
        if spec.fixed_trees
        else f"{spec.name}:{seed}:{round_no}"
    )
    tree = "serving" if spec.kind == "served" else "t0"
    preload, ingest = [], []
    live_other: dict = {}
    if spec.kind == "batch":
        # tree 0 is read afterwards; the others only have to survive
        models = _models(spec, rng, 1, spec.ingest_keys)
        for t in range(spec.ingest_trees):
            model = models[0] if t == 0 else _models(spec, rng, 1, 1)[0]
            pairs = [model.add(model.fresh()) for _ in range(spec.ingest_keys)]
            ingest.append(
                (
                    f"t{t}",
                    [
                        pairs[i : i + INGEST_BATCH]
                        for i in range(0, len(pairs), INGEST_BATCH)
                    ],
                )
            )
            if t:
                live_other[f"t{t}"] = dict(model.live)
    else:
        models = _models(spec, rng, spec.threads, spec.preload)
        pairs = [
            models[i % spec.threads].add(models[i % spec.threads].fresh())
            for i in range(spec.preload)
        ]
        preload.append((tree, pairs))
    if spec.fixed_trees:
        rng.seed(f"{spec.name}:{seed}:{round_no}:ops")
    count_blocks = {}
    if with_blocks:
        for kind in spec.mix:
            count_blocks[kind] = [
                _one_op(models[0], kind) for _ in range(spec.count_block)
            ]
    per_thread = -(-n_ops // spec.threads)
    thread_ops = [
        _mixed(model, spec.mix, per_thread, spec.vacuum_every)
        for model in models
    ]
    return RoundInputs(
        preload=preload,
        ingest=ingest,
        count_blocks=count_blocks,
        thread_ops=thread_ops,
        live={
            tree: {k: r for m in models for k, r in m.live.items()},
            **live_other,
        },
        everything=models[0].everything(),
    )


def timed_ops(spec: Spec, seconds: float, scale: float = 1.0) -> int:
    """Timed ops per round (all threads) for a run of ``seconds``."""
    per_round = spec.ops_per_second * seconds * scale / ROUNDS
    blocks = max(1, round(per_round / (BLOCK * spec.threads)))
    return blocks * BLOCK * spec.threads


def digest(inputs: RoundInputs) -> str:
    """Stable fingerprint of everything the program will be fed."""
    h = hashlib.sha256()
    for part in (
        inputs.preload,
        inputs.ingest,
        inputs.count_blocks,
        inputs.thread_ops,
    ):
        h.update(repr(part).encode())
    return h.hexdigest()
