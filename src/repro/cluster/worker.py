"""The partition worker: one full database per OS process.

Each worker owns a complete :class:`~repro.database.Database` — its own
WAL, buffer pool, lock manager, recovery and (optionally) lockdep
witness — and serves framed RPC requests over the socket it inherited
at fork.  Running the databases in separate *processes* is what lifts
a CPU-bound workload past the GIL: N partitions really do use N cores,
because nothing above the OS scheduler is shared.

Durability contract (the commit-LSN oracle's foundation): every commit
is appended to the partition's :class:`~repro.cluster.shadow.WalShadow`
**before** its acknowledgment frame is sent.  A worker killed at any
instant therefore leaves each acknowledged commit recoverable; the
respawned worker rebuilds its database from the shadow's durable
prefix via :meth:`Database.open_from_log` (ARIES redo onto an empty
store) and reports what it recovered in its ready handshake.

The worker is single-threaded: requests execute in arrival order, one
transaction per ``batch`` request (auto-commit).  Cross-partition
transactions do not exist — see DESIGN.md §13 for what the router does
and does not promise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.rpc import FrameChannel, error_response, ok_response
from repro.cluster.shadow import WalShadow
from repro.database import Database
from repro.errors import ChannelClosedError, best_effort
from repro.gist.checker import check_tree


@dataclass
class TreeSpec:
    """Catalog entry shipped to workers (extensions pickle at fork)."""

    extension: object
    unique: bool = False
    nsn_source: str = "counter"


@dataclass
class WorkerConfig:
    """Everything a worker process needs to build (or rebuild) itself."""

    partition: int
    shadow_path: str
    #: tree name -> :class:`TreeSpec`; on recovery these supply the
    #: extension instances restart analysis needs (extension code is
    #: never stored in the log, exactly as ``Database.restart``)
    catalog: dict = field(default_factory=dict)
    #: keyword arguments for the worker's :class:`Database`
    db_config: dict = field(default_factory=dict)
    #: rebuild from the WAL shadow instead of starting empty
    recover: bool = False


class PartitionWorker:
    """Request-serving wrapper around one partition's database."""

    def __init__(self, config: WorkerConfig, channel: FrameChannel) -> None:
        self.config = config
        self.channel = channel
        self.shadow = WalShadow(config.shadow_path)
        self.recovery_summary: dict | None = None
        self.db = self._build_database()
        self._running = True

    # ------------------------------------------------------------------
    # construction / recovery
    # ------------------------------------------------------------------
    def _build_database(self) -> Database:
        config = self.config
        extensions = {
            name: spec.extension for name, spec in config.catalog.items()
        }
        if config.recover:
            log = self.shadow.load_log()
            if log.end_lsn > 0:
                db = Database.open_from_log(
                    log, extensions, **config.db_config
                )
                report = db.recovery_report
                self.recovery_summary = {
                    "analyzed": report.analyzed_records,
                    "redone": report.redone_records,
                    "pages_rebuilt": report.pages_rebuilt,
                    "losers": list(report.losers),
                    "valid_end_lsn": report.valid_end_lsn,
                    "trees": list(report.trees),
                }
                # Recovery itself logged (CLRs, End records) and
                # flushed; those records are part of the durable
                # history the *next* incarnation must see.
                self.shadow.append_durable(db.log)
                return db
        # Fresh start (or an empty shadow): build the catalog from
        # scratch and shadow the tree-create records immediately, so a
        # kill before the first commit still recovers the catalog.
        db = Database(**config.db_config)
        for name, spec in config.catalog.items():
            db.create_tree(
                name,
                spec.extension,
                unique=spec.unique,
                nsn_source=spec.nsn_source,
            )
        db.log.flush()
        self.shadow.append_durable(db.log)
        return db

    # ------------------------------------------------------------------
    # serve loop
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Handshake, then serve requests until shutdown or client EOF."""
        self.channel.send(
            (
                "ready",
                {
                    "partition": self.config.partition,
                    "recovered": self.recovery_summary,
                    "end_lsn": self.db.log.end_lsn,
                },
            )
        )
        while self._running:
            try:
                req_id, method, payload = self.channel.recv()
            except ChannelClosedError:
                break  # client gone: die quietly, shadow is durable
            try:
                result = self.dispatch(method, payload)
            except Exception as exc:
                self.channel.send(error_response(req_id, exc))
            else:
                self.channel.send(ok_response(req_id, result))

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def dispatch(self, method: str, payload: object) -> object:
        """Execute one request; exceptions become typed error frames."""
        handler = getattr(self, f"_do_{method}", None)
        if handler is None:
            raise ValueError(f"unknown RPC method {method!r}")
        return handler(payload)

    def _do_describe(self, _payload: object) -> dict:
        db = self.db
        return {
            "partition": self.config.partition,
            "trees": sorted(db.trees),
            "page_capacity": db.store.page_capacity,
            "protocol_checks": db.protocol_checks,
            "op_tracing": db.op_tracing,
            "end_lsn": db.log.end_lsn,
            "flushed_lsn": db.log.flushed_lsn,
            "shadowed_lsn": self.shadow.shadowed_lsn,
        }

    def _do_create_tree(self, payload: tuple) -> bool:
        name, spec = payload
        self.config.catalog[name] = spec
        self.db.create_tree(
            name,
            spec.extension,
            unique=spec.unique,
            nsn_source=spec.nsn_source,
        )
        self.db.log.flush()
        self.shadow.append_durable(self.db.log)
        return True

    def _do_batch(self, payload: tuple) -> dict:
        """One transaction over a batch of ops, committed and shadowed.

        ``payload = (tree_name, ops)`` with each op one of::

            ("put", key, rid)         ("put_many", pairs)
            ("delete", key, rid)      ("delete_many", pairs)
            ("get", key)              ("get_many", keys)
            ("search", query)

        Reads return their results positionally; the whole batch
        commits atomically *within this partition*.  The ack carries
        the commit record's LSN (0 for a batch that only read) and the
        shadow's durable boundary — the two numbers the commit-LSN
        oracle audits after a kill.
        """
        tree_name, ops = payload
        db = self.db
        tree = db.tree(tree_name)
        txn = db.begin()
        results: list = []
        try:
            for op in ops:
                kind = op[0]
                if kind == "put":
                    tree.insert(txn, op[1], op[2])
                    results.append(None)
                elif kind == "delete":
                    tree.delete(txn, op[1], op[2])
                    results.append(None)
                elif kind == "put_many":
                    results.append(tree.multi_put(txn, op[1]))
                elif kind == "delete_many":
                    results.append(tree.multi_delete(txn, op[1]))
                elif kind == "get":
                    results.append(
                        [
                            rid
                            for _, rid in tree.search(
                                txn, tree.ext.eq_query(op[1])
                            )
                        ]
                    )
                elif kind == "get_many":
                    results.append(tree.multi_get(txn, op[1]))
                elif kind == "search":
                    results.append(tree.search(txn, op[1]))
                else:
                    raise ValueError(f"unknown batch op {kind!r}")
        except BaseException:
            best_effort(db.rollback, txn)
            raise
        commit_lsn = db.commit(txn)
        # Durability-before-acknowledgment: the shadow append happens
        # on this side of the response frame.
        self.shadow.append_durable(db.log)
        return {
            "results": results,
            "commit_lsn": commit_lsn,
            "durable_lsn": self.shadow.shadowed_lsn,
        }

    def _do_scan(self, payload: tuple) -> tuple:
        """Read-only range scan; results sorted when the domain allows.

        Returns ``(sorted_flag, [(key, rid), ...])`` — the front end
        heap-merges sorted legs into one ordered iteration and falls
        back to concatenation for unordered domains (R-tree windows,
        RD-tree overlaps).
        """
        tree_name, query = payload
        db = self.db
        tree = db.tree(tree_name)
        txn = db.begin()
        try:
            rows = tree.search(txn, query)
        finally:
            db.commit(txn)
        try:
            rows = sorted(rows)
            ordered = True
        except TypeError:
            ordered = False
        return (ordered, rows)

    def _do_snapshot(self, _payload: object) -> dict:
        return self.db.metrics.snapshot()

    def _do_verify(self, payload: dict) -> dict:
        """Structural check + full contents per tree (the oracle feed).

        ``payload`` maps tree names to an everything-matching query for
        that tree's domain (the client knows the domains; the worker
        does not guess).
        """
        db = self.db
        out: dict = {
            "partition": self.config.partition,
            "end_lsn": db.log.end_lsn,
            "recovered": self.recovery_summary,
            "trees": {},
        }
        for name, query in payload.items():
            tree = db.tree(name)
            report = check_tree(tree)
            txn = db.begin()
            try:
                contents = tree.search(txn, query)
            finally:
                db.commit(txn)
            out["trees"][name] = {
                "ok": report.ok,
                "errors": list(report.errors),
                "contents": contents,
            }
        return out

    def _do_protocol_report(self, _payload: object) -> list:
        if self.db.witness is None:
            return []
        return [str(v) for v in self.db.witness.drain_new()]

    def _do_shutdown(self, _payload: object) -> bool:
        self.db.shutdown()
        self.shadow.append_durable(self.db.log)
        self.shadow.close()
        self._running = False
        return True


def worker_entry(channel: FrameChannel, config: WorkerConfig) -> None:
    """Process entry point (the fork target)."""
    worker = PartitionWorker(config, channel)
    try:
        worker.serve_forever()
    finally:
        worker.shadow.close()
        channel.close()
