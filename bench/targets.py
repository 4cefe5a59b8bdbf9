"""What the workloads are driven against, through public APIs only.

Two targets: an embedded :class:`repro.Database` (``embedded``,
``batch`` and ``iobound`` workloads, and the ladder's database rung) and
``python -m repro.server`` in a subprocess behind ``ReproClient``
connections (``served``).  The ladder's cluster rung is a third, small
one.  Each exposes ``runner(thread)`` — a callable that executes one op
as its own transaction and returns what the program answered — so the
driving loop in ``run.py`` is the same for all of them.

The program is configured with simulated-device parameters only
(``io_delay``, ``flush_delay``, ``pool_capacity``): no accelerator knob
is ever passed, so the benchmark measures whatever the defaults are.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import partial

from repro import (
    BTreeExtension,
    Database,
    RTreeExtension,
    TransactionAbort,
    check_tree,
    vacuum,
)
from repro.errors import RemoteOpError
from repro.server import ReproClient

from spans import Recorder, timed_extension

RETRIES = 5
PRELOAD_TXN = 100  # point inserts per preload transaction
SERVED_PRELOAD_BATCH = 500
DEADLINE = 5.0  # seconds, every served op

# iobound_btree's simulated device
IO_DELAY = 0.001
FLUSH_DELAY = 0.002
#: frames per preloaded key: ≈ a tenth of the pages the preload builds
POOL_PER_KEY = 0.005
MIN_POOL = 24  # below ~12 frames deep split chains can pin the whole pool

EXTENSIONS = {"btree": BTreeExtension, "rtree": RTreeExtension}

#: a process that only ever runs on an otherwise idle core
_IDLE_SPIN = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except OSError:
    os.nice(19)
while True:
    pass
"""


class OpFailed(Exception):
    """An op that exhausted its retries or was refused by the server."""


def flatten(tree: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float)):
            flat[prefix + key] = value
    return flat


@contextmanager
def awake_cores():
    """Keep this VM's vCPUs from halting while wake-up chains are timed.

    A served or partitioned request is a chain of wake-ups between
    processes.  This VM idles by HLT: every wait hands the vCPU back to
    the host and every wake-up waits for the host to return it, which
    costs ~190 µs of a 530 µs served get and, when the host is busy,
    made two runs in eight 25% slow.  One SCHED_IDLE spinner per core
    (it runs only when nothing else wants the core) does what
    ``idle=poll`` would: runs of one period then agree within 4–7%, and
    what is left is the serving layer's own work.
    """
    idlers = []
    try:
        for cpu in os.sched_getaffinity(0):
            idler = subprocess.Popen([sys.executable, "-c", _IDLE_SPIN])
            idlers.append(idler)
            os.sched_setaffinity(idler.pid, {cpu})
        yield
    finally:
        for idler in idlers:
            idler.kill()
            idler.wait()


def _callables(rec: Recorder | None, table: dict) -> dict:
    """``{kind: fn}`` from ``{kind: (span name, fn)}``.

    Untraced, the program's own bound methods are called directly: not
    one benchmark frame sits between the clock and the program.
    """
    if rec is None:
        return {kind: fn for kind, (_, fn) in table.items()}
    return {kind: partial(rec.call, name, fn) for kind, (name, fn) in table.items()}


def _put_batches(pairs: list):
    """The preload as worker batch ops, ``SERVED_PRELOAD_BATCH`` at a time."""
    for i in range(0, len(pairs), SERVED_PRELOAD_BATCH):
        yield [("put", key, rid) for key, rid in pairs[i : i + SERVED_PRELOAD_BATCH]]


def same_pairs(rows: list, live: dict) -> bool:
    """Are ``rows`` exactly the model's ``{key: rid}``, each once?"""
    return len(rows) == len(live) and {key: rid for key, rid in rows} == live


class EmbeddedTarget:
    """A ``Database`` in this process."""

    def __init__(
        self, spec, trees: list, recorder: Recorder | None = None
    ) -> None:
        self.spec = spec
        self.rec = recorder
        ext_cls = EXTENSIONS[spec.ext]
        ext = ext_cls() if recorder is None else timed_extension(ext_cls, recorder)
        self.exts = {name: ext for name in trees}
        self.db = Database()
        for name in trees:
            self.db.create_tree(name, ext)
        self.retries = 0
        self.report = None

    # -- set-up --------------------------------------------------------
    def preload(self, loads: list) -> None:
        db = self.db
        for name, pairs in loads:
            tree = db.tree(name)
            for i in range(0, len(pairs), PRELOAD_TXN):
                txn = db.begin()
                for key, rid in pairs[i : i + PRELOAD_TXN]:
                    tree.insert(txn, key, rid)
                db.commit(txn)
        if self.spec.kind == "iobound":
            # the tree is built at memory speed; only the measured phase
            # (and its recovery) pays for the device
            db.pool.flush_all()
            db.checkpoint()
            db.crash()
            db.store.io_delay = IO_DELAY
            db.log.flush_delay = FLUSH_DELAY
            frames = max(MIN_POOL, int(self.spec.preload * POOL_PER_KEY))
            self.db = db.restart(self.exts, pool_capacity=frames)

    # -- ops -----------------------------------------------------------
    def runner(self, thread: int, tree_name: str = "t0"):
        """``run(kind, arg)``: begin → op → commit, retried on abort."""
        db, rec = self.db, self.rec
        tree = db.tree(tree_name)
        table = {
            "get": ("gist.search", tree.search),
            "scan": ("gist.search", tree.search),
            "insert": ("gist.insert", lambda txn, pair: tree.insert(txn, *pair)),
            "delete": ("gist.delete", lambda txn, pair: tree.delete(txn, *pair)),
            "multi_get": ("gist.multi_get", tree.multi_get),
            "multi_put": ("gist.multi_put", tree.multi_put),
            "vacuum": ("gist.vacuum", lambda txn, _: vacuum(tree, txn)),
        }
        ops = _callables(rec, table)
        begin, commit, rollback = _callables(
            rec,
            {
                "begin": ("txn.begin", db.begin),
                "commit": ("txn.commit", db.commit),
                "rollback": ("txn.rollback", db.rollback),
            },
        ).values()

        def run(kind, arg):
            op = ops[kind]
            for _ in range(RETRIES + 1):
                txn = begin()
                try:
                    result = op(txn, arg)
                    commit(txn)
                    return result
                except TransactionAbort:
                    rollback(txn)
                    self.retries += 1
            raise OpFailed(kind)

        run.rids_of = lambda rows: [rid for _, rid in rows]
        return run

    # -- observation ---------------------------------------------------
    def counters(self) -> dict:
        flat = flatten(self.db.metrics.snapshot())
        stats = self.db.stats()
        for tree in stats["trees"].values():
            for name, value in tree["predicates"].items():
                key = f"predicate.{name}"
                flat[key] = flat.get(key, 0) + value
        return flat

    def shape(self, tree_name: str = "t0") -> tuple:
        tree = self.db.tree(tree_name)
        return tree.height(), tree.page_count()

    # -- the end of a round --------------------------------------------
    def recover(self) -> float:
        """``crash()`` → ``restart()``; wall seconds."""
        t0 = time.perf_counter()
        self.db.crash()
        self.db = self.db.restart(self.exts)
        elapsed = time.perf_counter() - t0
        self.report = self.db.recovery_report
        return elapsed

    def verify(self, live: dict, everything) -> list:
        """Durability oracle: every tree must hold exactly the model."""
        problems = []
        db = self.db
        for name, expected in live.items():
            tree = db.tree(name)
            txn = db.begin()
            rows = tree.search(txn, everything)
            db.commit(txn)
            if not same_pairs(rows, expected):
                problems.append(
                    f"{name}: {len(rows)} rows after restart, "
                    f"model has {len(expected)}"
                )
            # reachability of every key is what the full scan above just
            # showed through the real search path; the checker's own
            # proof of it takes minutes on a multi_put-built tree
            report = check_tree(tree, check_reachability=False)
            if not report.ok:
                problems.append(f"{name}: check_tree: {report.errors[:3]}")
        return problems

    def close(self) -> None:
        self.db.shutdown()


class ServedTarget:
    """``python -m repro.server --port 0`` and sequential clients."""

    TREE = "serving"  # the tree the server CLI creates

    def __init__(self, root: str, recorder: Recorder | None = None):
        self.rec = recorder
        self.retries = 0
        self.report = None  # no recovery to report on, see recover()
        self.clients: list = []
        self._cpus = os.sched_getaffinity(0)
        self._awake = awake_cores()
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            self._awake.__enter__()
            # One core per side of the socket where there are two: both
            # processes run one thread at a time (the GIL), and left to
            # float their five threads are migrated between the cores
            # at the scheduler's whim (1 780 ops/s ± 12% floating, 2 590
            # ± 7% pinned).
            if len(self._cpus) >= 2:
                server_cpu = max(self._cpus)
                os.sched_setaffinity(self.proc.pid, {server_cpu})
                os.sched_setaffinity(0, self._cpus - {server_cpu})
            banner = self.proc.stdout.readline()
            # "serving on 127.0.0.1:40123 (backend=local)"
            self.port = int(banner.split(":")[1].split()[0])
            self.control = self._client("bench-control")
        except BaseException:
            self.close()
            raise

    def _client(self, name: str) -> ReproClient:
        client = ReproClient("127.0.0.1", self.port, name)
        self.clients.append(client)
        return client

    def preload(self, loads: list) -> None:
        for name, pairs in loads:
            for batch in _put_batches(pairs):
                self.control.batch(name, batch, timeout=30.0)

    def runner(self, thread: int, tree_name: str = TREE):
        client = self._client(f"bench-{thread}")
        verbs = _callables(
            self.rec,
            {
                "get": ("server.get", client.get),
                "scan": ("server.search", client.search),
                "insert": (
                    "server.put",
                    lambda tree, pair, timeout: client.put(
                        tree, *pair, timeout=timeout
                    ),
                ),
            },
        )

        def run(kind, arg):
            verb = verbs[kind]
            for _ in range(RETRIES + 1):
                try:
                    return verb(tree_name, arg, DEADLINE)
                except RemoteOpError as exc:
                    # a server-side transaction abort is retried; any
                    # other error, and every RetryLater or deadline
                    # frame, is a failed op
                    if exc.kind not in (
                        "TransactionAbort",
                        "DeadlockError",
                        "LockTimeoutError",
                    ):
                        raise OpFailed(f"{kind}: {exc}") from exc
                    self.retries += 1
            raise OpFailed(kind)

        run.rids_of = lambda rids: rids
        return run

    def counters(self) -> dict:
        stats = self.control.stats()
        flat = flatten(stats["backend"])
        flat.update(flatten(stats["server"]))
        return flat

    def shape(self, tree_name: str = TREE) -> tuple:
        return 0, 0  # not observable from outside the server

    def recover(self) -> float:
        return 0.0  # the CLI's database does not outlive its process

    def verify(self, live: dict, everything) -> list:
        problems = []
        for name, expected in live.items():
            rows = self.control.search(name, everything, timeout=30.0)
            if not same_pairs(rows, expected):
                problems.append(
                    f"{name}: {len(rows)} rows served, "
                    f"model has {len(expected)}"
                )
        return problems

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self._awake.__exit__(None, None, None)
        os.sched_setaffinity(0, self._cpus)
        proc = self.proc
        if proc.poll() is None:
            # not SIGINT: the CLI's graceful stop spends a fixed 2 s
            # joining its acceptor thread, and its database is in
            # memory only, so there is nothing for it to save
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


class ClusterTarget:
    """``PartitionedDatabase`` called directly (ladder rungs p1, p2)."""

    TREE = "t0"

    def __init__(self, partitions: int, data_dir: str):
        from repro.cluster import PartitionedDatabase

        self.data_dir = data_dir
        shutil.rmtree(data_dir, ignore_errors=True)
        self.cluster = PartitionedDatabase(partitions, data_dir=data_dir)
        self.cluster.create_tree(self.TREE, BTreeExtension())

    def preload(self, loads: list) -> None:
        for name, pairs in loads:
            for batch in _put_batches(pairs):
                self.cluster.apply_batch(name, batch)

    def runner(self, thread: int, tree_name: str = TREE):
        cluster = self.cluster
        verbs = {
            "get": cluster.get,
            "scan": cluster.search,
            "insert": lambda tree, pair: cluster.put(tree, *pair),
        }

        def run(kind, arg):
            return verbs[kind](tree_name, arg)

        run.rids_of = lambda rids: rids
        return run

    def recover_partition(self) -> float:
        """SIGKILL partition 0 and replay its WAL shadow; wall seconds."""
        self.cluster.kill_partition(0)
        t0 = time.perf_counter()
        self.cluster.recover_partition(0)
        return time.perf_counter() - t0

    def verify(self, live: dict, everything) -> list:
        rows = self.cluster.search(self.TREE, everything)
        expected = live[self.TREE]
        if not same_pairs(rows, expected):
            return [f"cluster: {len(rows)} rows, model has {len(expected)}"]
        return []

    def close(self) -> None:
        self.cluster.shutdown()
        shutil.rmtree(self.data_dir, ignore_errors=True)
