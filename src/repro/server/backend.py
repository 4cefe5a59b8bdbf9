"""Serving backends: one execution contract over both database shapes.

The server core neither knows nor cares whether requests land on an
embedded :class:`~repro.database.Database` or a process-per-partition
:class:`~repro.cluster.partitioned.PartitionedDatabase`; it talks to a
backend object with one method per wire verb, each taking the
request's **remaining deadline budget** as ``timeout``.

* :class:`LocalBackend` executes in-process.  Its ``batch`` mirrors
  the partition worker's transaction shape exactly — one auto-commit
  transaction per batch, commit flushed before the result returns —
  so an acked write is durable under the same contract the cluster
  promises.  Timeouts are accepted but not enforced mid-descent: a
  local descent has no hung-peer failure mode, and the admission
  layer already shed requests whose deadline expired before start.
* :class:`ClusterBackend` forwards the budget into the cluster's
  per-call RPC timeout, which is what arms the hung-partition path:
  a worker that misses the budget is killed, its breaker opens, and
  the resulting :class:`~repro.errors.CircuitOpenError` (or any
  :class:`~repro.errors.PartitionTimeoutError`) is translated into
  the serving layer's explicit backpressure
  (:class:`~repro.errors.RetryLater`) carrying the breaker's own
  retry-after hint.
"""

from __future__ import annotations

from repro.errors import (
    CircuitOpenError,
    best_effort,
    PartitionFailedError,
    PartitionTimeoutError,
    RetryLater,
)

__all__ = ["ClusterBackend", "LocalBackend"]


class LocalBackend:
    """In-process execution over one :class:`~repro.database.Database`.

    The database's own latching and lock manager make it safe for the
    server's worker pool to call concurrently; each batch runs as its
    own transaction exactly as in the partition worker.
    """

    def __init__(self, db) -> None:
        self.db = db

    # -- wire verbs ----------------------------------------------------
    def put(self, tree, key, rid, timeout=None) -> dict:
        return self.batch(tree, [("put", key, rid)], timeout)

    def get(self, tree, key, timeout=None) -> list:
        return self.batch(tree, [("get", key)], timeout)["results"][0]

    def delete(self, tree, key, rid, timeout=None) -> dict:
        return self.batch(tree, [("delete", key, rid)], timeout)

    def multi_put(self, tree, pairs, timeout=None) -> int:
        return self.batch(tree, [("put_many", pairs)], timeout)[
            "results"
        ][0]

    def multi_delete(self, tree, pairs, timeout=None) -> int:
        return self.batch(tree, [("delete_many", pairs)], timeout)[
            "results"
        ][0]

    def multi_get(self, tree, keys, timeout=None) -> dict:
        return self.batch(tree, [("get_many", keys)], timeout)[
            "results"
        ][0]

    def search(self, tree, query, timeout=None) -> list:
        db = self.db
        txn = db.begin()
        try:
            return db.tree(tree).search(txn, query)
        finally:
            db.commit(txn)

    def batch(self, tree_name, ops, timeout=None) -> dict:
        """One transaction over ``ops`` (the worker ``_do_batch`` shape)."""
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
        return {
            "results": results,
            "commit_lsn": commit_lsn,
            "durable_lsn": db.log.flushed_lsn,
        }

    # -- observation ---------------------------------------------------
    def snapshot(self) -> dict:
        return self.db.metrics.snapshot()

    def health(self) -> dict:
        return {
            "backend": "local",
            "trees": sorted(self.db.trees),
            "end_lsn": self.db.log.end_lsn,
        }

    def shutdown(self) -> None:
        self.db.shutdown()


class ClusterBackend:
    """Cluster execution: deadline budget becomes the RPC timeout."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def _timeout(self, budget) -> float | None:
        """Deadline budget -> RPC timeout, clamped from above.

        A tight budget shortens the RPC wait (no point waiting past
        the client's deadline), but a generous budget must never
        *extend* it — the configured ``rpc_timeout`` is the hang
        detector, and a patient client should not disable it.
        """
        ceiling = self.cluster.rpc_timeout
        if budget is None:
            return None  # cluster default applies
        if ceiling is None:
            return budget  # no hang detector configured: budget rules
        return min(budget, ceiling)

    def _shed(self, exc) -> "RetryLater":
        """Translate a breaker/timeout failure into backpressure.

        A :class:`CircuitOpenError` knows exactly when the breaker
        will probe; a fresh :class:`PartitionTimeoutError` just
        opened the breaker, so the cooldown is the honest hint.
        """
        if isinstance(exc, CircuitOpenError):
            return RetryLater(exc.retry_after, "circuit_open")
        return RetryLater(
            self.cluster.breaker_cooldown, "partition_timeout"
        )

    # -- wire verbs ----------------------------------------------------
    def put(self, tree, key, rid, timeout=None) -> dict:
        try:
            return self.cluster.put(
                tree, key, rid, timeout=self._timeout(timeout)
            )
        except (CircuitOpenError, PartitionTimeoutError) as exc:
            raise self._shed(exc) from exc

    def get(self, tree, key, timeout=None) -> list:
        try:
            return self.cluster.get(
                tree, key, timeout=self._timeout(timeout)
            )
        except (CircuitOpenError, PartitionTimeoutError) as exc:
            raise self._shed(exc) from exc

    def delete(self, tree, key, rid, timeout=None) -> dict:
        try:
            return self.cluster.delete(
                tree, key, rid, timeout=self._timeout(timeout)
            )
        except (CircuitOpenError, PartitionTimeoutError) as exc:
            raise self._shed(exc) from exc

    def multi_put(self, tree, pairs, timeout=None) -> int:
        try:
            return self.cluster.multi_put(
                tree, pairs, timeout=self._timeout(timeout)
            )
        except (CircuitOpenError, PartitionTimeoutError) as exc:
            raise self._shed(exc) from exc

    def multi_delete(self, tree, pairs, timeout=None) -> int:
        try:
            return self.cluster.multi_delete(
                tree, pairs, timeout=self._timeout(timeout)
            )
        except (CircuitOpenError, PartitionTimeoutError) as exc:
            raise self._shed(exc) from exc

    def multi_get(self, tree, keys, timeout=None) -> dict:
        try:
            return self.cluster.multi_get(
                tree, keys, timeout=self._timeout(timeout)
            )
        except (CircuitOpenError, PartitionTimeoutError) as exc:
            raise self._shed(exc) from exc

    def search(self, tree, query, timeout=None) -> list:
        try:
            return self.cluster.search(
                tree, query, timeout=self._timeout(timeout)
            )
        except (CircuitOpenError, PartitionTimeoutError) as exc:
            raise self._shed(exc) from exc

    def batch(self, tree, ops, timeout=None) -> dict:
        try:
            acks = self.cluster.apply_batch(
                tree, ops, timeout=self._timeout(timeout)
            )
        except (CircuitOpenError, PartitionTimeoutError) as exc:
            raise self._shed(exc) from exc
        # Fold the per-partition acks back into the single-node ack
        # shape.  ``apply_batch`` groups ops by routed key preserving
        # relative order within each partition, so replaying the same
        # routing here restores the positional result order.
        order: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            order.setdefault(
                self.cluster.router.partition_of(op[1]), []
            ).append(i)
        results: list = [None] * len(ops)
        for p, idxs in order.items():
            for idx, res in zip(idxs, acks[p]["results"]):
                results[idx] = res
        return {
            "results": results,
            "commit_lsn": {
                p: acks[p]["commit_lsn"] for p in sorted(acks)
            },
            "durable_lsn": {
                p: acks[p]["durable_lsn"] for p in sorted(acks)
            },
        }

    # -- observation ---------------------------------------------------
    def snapshot(self) -> dict:
        # One retry: the first scatter after a worker death recovers
        # the partition inline and raises; the retry runs clean.  The
        # control plane should report a recovering cluster, not fail.
        try:
            return self.cluster.snapshot()
        except PartitionFailedError:
            return self.cluster.snapshot()

    def health(self) -> dict:
        return {
            "backend": "cluster",
            "partitions": self.cluster.partitions,
            "trees": sorted(self.cluster.catalog),
            "breakers": {
                str(p): b.snapshot()
                for p, b in enumerate(self.cluster._breakers)
            },
        }

    def shutdown(self) -> None:
        self.cluster.shutdown()
