"""The cluster front end: one logical database over N partition workers.

:class:`PartitionedDatabase` is the embedder-facing object.  It routes
single-key operations to the owning partition (stable-hash
:mod:`~repro.cluster.router` placement), scatters multi-partition work as
pipelined fan-outs (send every leg, then collect every ack — legs
execute concurrently in the worker processes), and merge-gathers range
scans into one ordered iteration via :func:`heapq.merge`.

Why processes: the link protocol's latches and the buffer pool scale
only *within* the GIL; a CPU-bound workload still serializes on the
interpreter lock.  Each partition worker is a whole
:class:`~repro.database.Database` in its own process — own WAL, own
buffer pool, own recovery — so partitions genuinely run in parallel,
and a partition crash is contained: the supervisor respawns it from
its durable WAL shadow while the other partitions keep serving.

Concurrency discipline (mirrors DESIGN.md §12's lock-ordering rules):
each partition's channel is guarded by a mutex, and scatter calls take
the mutexes in ascending partition order — the same
ordered-acquisition argument that makes the batch APIs ABBA-free makes
concurrent fan-outs here deadlock-free.

What is promised: per-partition linearizability (each worker is the
PR 6 oracle-checked database) and durability of every *acknowledged*
commit across worker SIGKILL.  What is **not** promised: atomicity
across partitions — a multi-partition batch commits per partition, and
a crash between legs leaves acknowledged legs durable and the failed
leg's effects "maybe" (present or absent), which is exactly what the
chaos harness's partition oracle accounts for.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import tempfile
import threading
import time

from repro.cluster.breaker import CircuitBreaker
from repro.cluster.router import Router, make_router
from repro.cluster.supervisor import Supervisor
from repro.cluster.worker import TreeSpec, WorkerConfig
from repro.errors import (
    ChannelClosedError,
    CircuitOpenError,
    ClusterError,
    PartitionFailedError,
    PartitionTimeoutError,
    RpcTimeoutError,
    WorkerFaultError,
    best_effort,
)
from repro.obs.metrics import MetricsRegistry, merge_snapshots

MANIFEST_NAME = "cluster.json"


def _budget(deadline: float | None) -> float | None:
    """Remaining seconds until ``deadline`` (monotonic), ``None`` = ∞.

    Clamped to a tiny positive value rather than zero: a zero socket
    timeout means non-blocking mode, which would surface as spurious
    ``BlockingIOError`` instead of the typed timeout.
    """
    if deadline is None:
        return None
    return max(1e-6, deadline - time.monotonic())


class PartitionedDatabase:
    """Hash-partitioned database over process-per-partition workers."""

    def __init__(
        self,
        partitions: int = 2,
        *,
        router: "Router | dict | str" = "hash",
        data_dir: str | None = None,
        rpc_timeout: float | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        **db_config,
    ) -> None:
        self.partitions = partitions
        self.router = make_router(router, partitions)
        if data_dir is None:
            data_dir = tempfile.mkdtemp(prefix="repro-cluster-")
            self._owns_data_dir = True
        else:
            os.makedirs(data_dir, exist_ok=True)
            self._owns_data_dir = False
        self.data_dir = data_dir
        self.db_config = dict(db_config)
        #: default per-call RPC deadline (``None``: wait forever, the
        #: pre-serving behavior); individual calls may override
        self.rpc_timeout = rpc_timeout
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        #: tree name -> TreeSpec (the parent-side catalog mirror)
        self.catalog: dict[str, TreeSpec] = {}
        self.metrics = MetricsRegistry()
        self._req_ids = itertools.count(1)
        self._locks = [threading.Lock() for _ in range(partitions)]
        self._breakers = self._make_breakers()
        self._closed = False
        self.supervisor = Supervisor(partitions, self._config_factory)
        self._register_gauges()
        self._write_manifest()

    def _make_breakers(self) -> "list[CircuitBreaker]":
        return [
            CircuitBreaker(
                p,
                threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
            )
            for p in range(self.partitions)
        ]

    # ------------------------------------------------------------------
    # construction plumbing
    # ------------------------------------------------------------------
    def _config_factory(self, partition: int, recover: bool) -> WorkerConfig:
        return self._worker_config(partition, recover=recover)

    def _worker_config(self, partition: int, *, recover: bool) -> WorkerConfig:
        return WorkerConfig(
            partition=partition,
            shadow_path=os.path.join(
                self.data_dir, f"partition-{partition}.walshadow"
            ),
            catalog=dict(self.catalog),
            db_config=dict(self.db_config),
            recover=recover,
        )

    def _register_gauges(self) -> None:
        self.metrics.gauge(
            "cluster.worker_restarts", lambda: self.supervisor.restarts
        )
        self.metrics.gauge("cluster.partitions", lambda: self.partitions)
        self.metrics.gauge(
            "cluster.rpc.bytes_sent",
            lambda: sum(
                h.channel.bytes_sent
                for h in self.supervisor.handles.values()
            ),
        )
        self.metrics.gauge(
            "cluster.rpc.frames_sent",
            lambda: sum(
                h.channel.frames_sent
                for h in self.supervisor.handles.values()
            ),
        )
        for p, breaker in enumerate(self._breakers):
            self.metrics.gauge(
                f"cluster.breaker.{p}", breaker.snapshot
            )

    def _write_manifest(self) -> None:
        """Persist what a re-open cannot rediscover: topology + knobs.

        The workers' stores and logs are process-local; the manifest is
        the only durable witness of the partition count, router policy
        and database knobs, exactly as ``open_from_log`` documents.
        """
        manifest = {
            "partitions": self.partitions,
            "router": self.router.spec(),
            "rpc": {
                "timeout": self.rpc_timeout,
                "breaker_threshold": self.breaker_threshold,
                "breaker_cooldown": self.breaker_cooldown,
            },
            "db_config": {
                k: v
                for k, v in self.db_config.items()
                if isinstance(v, (int, float, str, bool, type(None)))
            },
            "catalog": {
                name: {"unique": spec.unique}
                for name, spec in self.catalog.items()
            },
        }
        path = os.path.join(self.data_dir, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)

    @classmethod
    def open(
        cls,
        data_dir: str,
        extensions: dict,
        **overrides,
    ) -> "PartitionedDatabase":
        """Re-open a cluster from its manifest + per-partition shadows.

        ``extensions`` maps tree names to extension instances (never
        persisted, same contract as ``Database.restart``).  Topology
        (``partitions``, ``router``) is pinned by the manifest;
        database knobs may be overridden per re-open, and everything
        not overridden propagates from the manifest.
        """
        with open(os.path.join(data_dir, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
        rpc = dict(manifest.get("rpc", {}))
        rpc_timeout = overrides.pop("rpc_timeout", rpc.get("timeout"))
        breaker_threshold = overrides.pop(
            "breaker_threshold", rpc.get("breaker_threshold", 3)
        )
        breaker_cooldown = overrides.pop(
            "breaker_cooldown", rpc.get("breaker_cooldown", 1.0)
        )
        db_config = dict(manifest["db_config"])
        db_config.update(overrides)
        cluster = cls.__new__(cls)
        cluster.partitions = manifest["partitions"]
        cluster.router = make_router(
            manifest["router"], cluster.partitions
        )
        cluster.data_dir = data_dir
        cluster._owns_data_dir = False
        cluster.db_config = db_config
        cluster.rpc_timeout = rpc_timeout
        cluster.breaker_threshold = breaker_threshold
        cluster.breaker_cooldown = breaker_cooldown
        cluster.catalog = {
            name: TreeSpec(extension=extensions[name], unique=entry["unique"])
            for name, entry in manifest["catalog"].items()
        }
        cluster.metrics = MetricsRegistry()
        cluster._req_ids = itertools.count(1)
        cluster._locks = [
            threading.Lock() for _ in range(cluster.partitions)
        ]
        cluster._breakers = cluster._make_breakers()
        cluster._closed = False
        cluster.supervisor = Supervisor(
            cluster.partitions,
            cluster._config_factory,
            initial_recover=True,
        )
        cluster._register_gauges()
        cluster._write_manifest()
        return cluster

    def restart(self, **overrides) -> "PartitionedDatabase":
        """Graceful stop + re-open from the shadows (knob propagation).

        Every knob not named in ``overrides`` keeps its value, matching
        ``Database.restart``'s ``setdefault`` contract; ``partitions``
        and ``router`` are topology, not knobs, and always propagate.
        """
        extensions = {
            name: spec.extension for name, spec in self.catalog.items()
        }
        owned = self._owns_data_dir
        self._owns_data_dir = False  # the successor inherits the dir
        self.shutdown()
        successor = type(self).open(self.data_dir, extensions, **overrides)
        successor._owns_data_dir = owned
        return successor

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def _send_on(
        self,
        partition: int,
        method: str,
        payload: object,
        deadline: float | None = None,
    ) -> int:
        handle = self.supervisor.handle(partition)
        if handle.dead:
            # death already detected (e.g. an explicit chaos kill):
            # recover now so routing resumes, and fail this request
            self._on_worker_death(partition)
        req_id = next(self._req_ids)
        try:
            handle.channel.send(
                (req_id, method, payload), timeout=_budget(deadline)
            )
        except ChannelClosedError:
            self._on_worker_death(partition)
        return req_id

    def _recv_on(
        self, partition: int, req_id: int, deadline: float | None = None
    ) -> object:
        handle = self.supervisor.handle(partition)
        try:
            got_id, ok, payload = handle.channel.recv(
                timeout=_budget(deadline)
            )
        except ChannelClosedError:
            self._on_worker_death(partition)
        if got_id != req_id:  # pragma: no cover - strict req/resp pairing
            raise ClusterError(
                f"partition {partition}: response {got_id} != request "
                f"{req_id}"
            )
        if not ok:
            kind, message = payload
            raise WorkerFaultError(kind, message)
        return payload

    def _on_worker_death(self, partition: int) -> "None":
        """EOF on a channel: the worker died.  Recover, then report.

        The supervisor respawns the partition from its WAL shadow
        before the error surfaces, so by the time the caller sees
        :class:`PartitionFailedError` routing has already resumed —
        the failed request itself is the only casualty (its effects
        are "maybe": the oracle treats in-flight-at-kill ops as
        allowed-present-or-absent).
        """
        self.supervisor.mark_dead(partition)
        if not self._closed:  # teardown must not resurrect workers
            self.supervisor.recover(partition)
        raise PartitionFailedError(partition)

    def _on_worker_timeout(self, partition: int, timeout: float) -> "None":
        """A partition missed its deadline: kill it, trip its breaker.

        Unlike :meth:`_on_worker_death` (EOF — fast, recover inline)
        the hung worker's recovery is *deferred* to the breaker's
        half-open probe: replaying the WAL shadow takes time, and doing
        it here, under the partition lock, would stall every caller
        already queued behind this one — exactly the collapse the
        serving layer exists to prevent.  The SIGKILL is mandatory
        either way: after a timeout the channel may still carry the
        late response, so it can never be reused.
        """
        self.metrics.counter("cluster.rpc.timeouts").inc()
        self.metrics.counter(
            f"cluster.partition.{partition}.rpc_timeouts"
        ).inc()
        self.supervisor.kill(partition)
        self._breakers[partition].record_failure(timeout=True)
        raise PartitionTimeoutError(partition, timeout)

    def _call(
        self,
        partition: int,
        method: str,
        payload: object,
        timeout: float | None = None,
    ) -> object:
        """One request/response exchange, deadline- and breaker-gated.

        The breaker check happens *before* the partition lock: while a
        breaker is open its partition's traffic fails fast without
        queueing on the mutex, so a hung partition cannot pile up
        callers.  The winning half-open probe performs the deferred
        recovery before issuing its RPC.
        """
        timeout = self.rpc_timeout if timeout is None else timeout
        breaker = self._breakers[partition]
        probe = breaker.check()
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._locks[partition]:
            if probe:
                try:
                    self.supervisor.ensure(partition)
                except Exception:
                    breaker.record_failure()  # re-open, never wedge
                    raise
            try:
                req_id = self._send_on(
                    partition, method, payload, deadline
                )
                result = self._recv_on(partition, req_id, deadline)
            except RpcTimeoutError:
                self._on_worker_timeout(partition, timeout)
            except WorkerFaultError:
                breaker.record_success()  # the worker answered
                raise
            except PartitionFailedError:
                breaker.record_failure()
                raise
            breaker.record_success()
            return result

    def _scatter(
        self,
        targets: "list[int]",
        requests: dict,
        timeout: float | None = None,
    ) -> dict:
        """Pipelined fan-out: send every leg, then collect every ack.

        ``requests`` maps partition -> (method, payload).  Locks are
        taken in ascending partition order (deadlock freedom) and held
        across the whole exchange.  On a leg failure the error carries
        the already-acknowledged legs in ``.acked`` so a caller (the
        chaos harness) can still account for what committed.

        ``timeout`` bounds each *leg* independently (send and receive
        each get a fresh budget): one hung partition costs its own
        deadline, never a healthy sibling's — a shared budget would let
        a stalled first leg eat the whole window and get responsive
        legs killed as collateral.  Legs whose breaker is open fail
        fast without sending.
        """
        timeout = self.rpc_timeout if timeout is None else timeout
        targets = sorted(targets)
        probes: dict[int, bool] = {}
        admitted: "list[int]" = []
        failures: list[Exception] = []
        for p in targets:
            try:
                probes[p] = self._breakers[p].check()
                admitted.append(p)
            except CircuitOpenError as exc:
                failures.append(exc)
        for p in admitted:
            self._locks[p].acquire()
        try:
            sent: dict[int, int] = {}
            acked: dict[int, object] = {}
            # Collect-all semantics: a failed leg must not strand the
            # other legs' responses in their socket buffers (a later
            # request would then read a stale frame and desync the
            # req/resp pairing), so every successfully-sent leg is
            # received even after a failure is recorded.
            for p in admitted:
                method, payload = requests[p]
                if probes[p]:
                    try:
                        self.supervisor.ensure(p)
                    except Exception as exc:
                        self._breakers[p].record_failure()  # re-open
                        if isinstance(exc, PartitionFailedError):
                            failures.append(exc)
                            continue
                        raise
                deadline = (
                    None
                    if timeout is None
                    else time.monotonic() + timeout
                )
                try:
                    sent[p] = self._send_on(p, method, payload, deadline)
                except RpcTimeoutError:
                    try:
                        self._on_worker_timeout(p, timeout)
                    except PartitionFailedError as exc:
                        failures.append(exc)
                except PartitionFailedError as exc:
                    self._breakers[p].record_failure()
                    failures.append(exc)
            for p, req_id in sent.items():
                deadline = (
                    None
                    if timeout is None
                    else time.monotonic() + timeout
                )
                try:
                    acked[p] = self._recv_on(p, req_id, deadline)
                except RpcTimeoutError:
                    try:
                        self._on_worker_timeout(p, timeout)
                    except PartitionFailedError as exc:
                        failures.append(exc)
                except WorkerFaultError as exc:
                    self._breakers[p].record_success()
                    failures.append(exc)
                except PartitionFailedError as exc:
                    self._breakers[p].record_failure()
                    failures.append(exc)
                else:
                    self._breakers[p].record_success()
            if failures:
                exc = failures[0]
                exc.acked = acked
                raise exc
            return acked
        finally:
            for p in admitted:
                self._locks[p].release()

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def create_tree(
        self,
        name: str,
        extension,
        *,
        unique: bool = False,
    ) -> None:
        """Create ``name`` on every partition (broadcast DDL)."""
        if name in self.catalog:
            raise ClusterError(f"tree {name!r} already exists")
        spec = TreeSpec(extension=extension, unique=unique)
        acked = self._scatter(
            list(range(self.partitions)),
            {
                p: ("create_tree", (name, spec))
                for p in range(self.partitions)
            },
        )
        missing = set(range(self.partitions)) - set(acked)
        if missing:
            # DDL must be all-or-nothing before the catalog admits the
            # tree; a partition that silently missed it would reject
            # every routed op later.
            raise ClusterError(
                f"create_tree {name!r}: partitions {sorted(missing)} "
                "did not ack"
            )
        self.catalog[name] = spec
        self._write_manifest()

    # ------------------------------------------------------------------
    # single-key operations (one partition each)
    # ------------------------------------------------------------------
    def _routed(self, key: object) -> int:
        partition = self.router.partition_of(key)
        self.metrics.counter("cluster.routed_ops").inc()
        self.metrics.counter(
            f"cluster.partition.{partition}.routed_ops"
        ).inc()
        return partition

    def put(
        self,
        tree: str,
        key: object,
        rid: object,
        timeout: float | None = None,
    ) -> dict:
        """Insert on the owning partition; the ack is the durability
        receipt (commit LSN + shadowed LSN) the oracle audits."""
        partition = self._routed(key)
        return self._call(
            partition, "batch", (tree, [("put", key, rid)]), timeout
        )

    def get(
        self, tree: str, key: object, timeout: float | None = None
    ) -> list:
        partition = self._routed(key)
        ack = self._call(
            partition, "batch", (tree, [("get", key)]), timeout
        )
        return ack["results"][0]

    def delete(
        self,
        tree: str,
        key: object,
        rid: object,
        timeout: float | None = None,
    ) -> dict:
        partition = self._routed(key)
        return self._call(
            partition, "batch", (tree, [("delete", key, rid)]), timeout
        )

    # ------------------------------------------------------------------
    # batched operations (scatter by ownership)
    # ------------------------------------------------------------------
    def _group_pairs(self, pairs) -> dict:
        grouped: dict[int, list] = {}
        for key, rid in pairs:
            grouped.setdefault(self._routed(key), []).append((key, rid))
        return grouped

    def apply_batch(
        self,
        tree: str,
        ops: "list[tuple]",
        timeout: float | None = None,
    ) -> dict:
        """Route a mixed op batch and scatter it; ``{partition: ack}``.

        Each op is a worker batch tuple (``("put", k, r)``,
        ``("delete", k, r)``, ``("get", k)``); ops land on their key's
        partition and each partition's slice commits as one
        transaction there.  This is the chaos harness's entry point —
        the per-partition acks carry the commit/durable LSNs its
        oracle records.
        """
        grouped: dict[int, list] = {}
        for op in ops:
            grouped.setdefault(self._routed(op[1]), []).append(op)
        return self._scatter(
            list(grouped),
            {p: ("batch", (tree, batch)) for p, batch in grouped.items()},
            timeout,
        )

    def multi_put(
        self, tree: str, pairs, timeout: float | None = None
    ) -> int:
        """Batched insert, grouped by owner; returns pairs inserted."""
        grouped = self._group_pairs(pairs)
        acks = self._scatter(
            list(grouped),
            {
                p: ("batch", (tree, [("put_many", chunk)]))
                for p, chunk in grouped.items()
            },
            timeout,
        )
        return sum(ack["results"][0] for ack in acks.values())

    def multi_delete(
        self, tree: str, pairs, timeout: float | None = None
    ) -> int:
        grouped = self._group_pairs(pairs)
        acks = self._scatter(
            list(grouped),
            {
                p: ("batch", (tree, [("delete_many", chunk)]))
                for p, chunk in grouped.items()
            },
            timeout,
        )
        return sum(ack["results"][0] for ack in acks.values())

    def multi_get(
        self, tree: str, keys, timeout: float | None = None
    ) -> dict:
        grouped: dict[int, list] = {}
        for key in keys:
            grouped.setdefault(self._routed(key), []).append(key)
        acks = self._scatter(
            list(grouped),
            {
                p: ("batch", (tree, [("get_many", chunk)]))
                for p, chunk in grouped.items()
            },
            timeout,
        )
        merged: dict = {}
        for ack in acks.values():
            merged.update(ack["results"][0])
        return merged

    # ------------------------------------------------------------------
    # scatter-gather queries
    # ------------------------------------------------------------------
    def search(
        self, tree: str, query: object, timeout: float | None = None
    ) -> list:
        """Scatter ``query`` to every partition, merge-gather one result
        sequence.

        When every leg reports an ordered result the legs are
        heap-merged into one globally ordered iteration; router key
        ownership is disjoint, so every matching key appears exactly
        once — no cross-partition dedupe pass exists or is needed.
        """
        targets = list(range(self.partitions))
        if len(targets) > 1:
            self.metrics.counter("cluster.scatter_queries").inc()
        acks = self._scatter(
            targets,
            {p: ("scan", (tree, query)) for p in targets},
            timeout,
        )
        legs = [acks[p] for p in sorted(acks)]
        if legs and all(ordered for ordered, _ in legs):
            return list(heapq.merge(*(rows for _, rows in legs)))
        return [row for _, rows in legs for row in rows]

    # ------------------------------------------------------------------
    # observation / maintenance
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Cluster metrics + per-partition snapshots + their aggregate.

        Shape: ``cluster`` (front-end registry: routing counters, RPC
        wire gauges, restarts), ``partition.<i>`` (that worker's
        ``db.metrics.snapshot()`` verbatim) and ``aggregate`` (all
        partition snapshots folded with
        :func:`~repro.obs.metrics.merge_snapshots`).
        """
        targets = list(range(self.partitions))
        acks = self._scatter(
            targets, {p: ("snapshot", None) for p in targets}
        )
        return {
            "cluster": self.metrics.snapshot(),
            "partition": {str(p): acks[p] for p in sorted(acks)},
            "aggregate": merge_snapshots(
                [acks[p] for p in sorted(acks)]
            ),
        }

    def describe(self) -> dict:
        """Per-partition knob/LSN report (restart-knob test feed)."""
        targets = list(range(self.partitions))
        return self._scatter(
            targets, {p: ("describe", None) for p in targets}
        )

    def verify(self, queries: dict) -> dict:
        """Structural check + contents per partition.

        ``queries`` maps tree names to an everything-matching query
        for that tree's domain.
        """
        targets = list(range(self.partitions))
        return self._scatter(
            targets, {p: ("verify", queries) for p in targets}
        )

    def protocol_report(self) -> dict:
        targets = list(range(self.partitions))
        return self._scatter(
            targets, {p: ("protocol_report", None) for p in targets}
        )

    # ------------------------------------------------------------------
    # failure injection (chaos harness surface)
    # ------------------------------------------------------------------
    def kill_partition(self, partition: int) -> None:
        """SIGKILL one worker — no flush, no goodbye (chaos mode)."""
        with self._locks[partition]:
            self.supervisor.kill(partition)

    def recover_partition(self, partition: int) -> dict:
        """Respawn a killed worker from its shadow; recovery summary.

        Explicit recovery also closes the partition's breaker: the
        caller (chaos harness, operator) has just done the work the
        half-open probe exists to defer, so traffic may resume at once.
        """
        with self._locks[partition]:
            handle = self.supervisor.recover(partition)
            self._breakers[partition].record_success()
            return handle.ready_info

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Graceful stop: drain each worker, then reap the processes."""
        if self._closed:
            return
        self._closed = True
        for p in range(self.partitions):
            best_effort(
                self._call,
                p,
                "shutdown",
                None,
                only=(PartitionFailedError, ChannelClosedError),
            )
        self.supervisor.shutdown()
        if self._owns_data_dir:
            import shutil

            shutil.rmtree(self.data_dir, ignore_errors=True)
