"""Worker process lifecycle: spawn, watch, kill, recover.

The supervisor owns the fork/handshake dance and the failure path.  A
worker's death is *detected* at the RPC layer (EOF on its channel →
:class:`~repro.errors.ChannelClosedError`) and *handled* here: respawn
the partition with ``recover=True`` so the new process rebuilds its
database from the partition's WAL shadow, then re-run the ready
handshake and resume routing.  The chaos harness drives this path
deliberately (SIGKILL mid-workload) and audits the result against the
commit-LSN oracle.

Workers are forked, not spawned: the child inherits the socketpair end
and the in-memory :class:`WorkerConfig` (extension instances included)
without pickling, matching how the rest of the repo treats extension
code — supplied by the embedder, never serialized.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from typing import Callable

from repro.cluster.rpc import FrameChannel, channel_pair
from repro.cluster.worker import WorkerConfig, worker_entry
from repro.errors import ClusterError

#: explicit fork context: the worker must inherit its socket fd and
#: config object; spawn would re-import and re-pickle both
_MP = multiprocessing.get_context("fork")


class WorkerHandle:
    """One partition's live process + client channel + vital signs."""

    def __init__(
        self,
        partition: int,
        process: "multiprocessing.Process",
        channel: FrameChannel,
        ready_info: dict,
    ) -> None:
        self.partition = partition
        self.process = process
        self.channel = channel
        #: handshake payload: recovery summary (if any) and end LSN
        self.ready_info = ready_info
        self.dead = False

    def is_alive(self) -> bool:
        return not self.dead and self.process.is_alive()


class Supervisor:
    """Spawns and resurrects the cluster's partition workers.

    Configs come from a *factory*, not a snapshot: the catalog grows
    after the cluster starts (``create_tree`` broadcasts), and a
    recovery respawn must ship the catalog as it is *now* — a config
    captured at cluster start would strand recovery without the
    extensions it needs to rebuild the trees.
    """

    def __init__(
        self,
        partitions: int,
        config_factory: "Callable[[int, bool], WorkerConfig]",
        *,
        initial_recover: bool = False,
    ) -> None:
        self.partitions = partitions
        self._factory = config_factory
        self.handles: dict[int, WorkerHandle] = {}
        #: lifetime count of crash-recovery respawns (metrics feed)
        self.restarts = 0
        for p in range(partitions):
            self.handles[p] = self._spawn(
                config_factory(p, initial_recover)
            )

    # ------------------------------------------------------------------
    # spawn / handshake
    # ------------------------------------------------------------------
    def _spawn(self, config: WorkerConfig) -> WorkerHandle:
        client_ch, worker_ch = channel_pair()
        process = _MP.Process(
            target=worker_entry,
            args=(worker_ch, config),
            name=f"partition-{config.partition}",
            daemon=True,
        )
        process.start()
        # The parent must drop its copy of the worker-end fd: as long
        # as it stays open here, a dead worker's socket never reaches
        # EOF and death detection goes blind.
        worker_ch.close()
        tag, info = client_ch.recv()
        if tag != "ready":  # pragma: no cover - handshake is fixed
            raise ClusterError(
                f"partition {config.partition} sent {tag!r}, not ready"
            )
        return WorkerHandle(config.partition, process, client_ch, info)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def handle(self, partition: int) -> WorkerHandle:
        try:
            return self.handles[partition]
        except KeyError:
            raise ClusterError(f"no partition {partition}") from None

    # ------------------------------------------------------------------
    # failure injection + recovery
    # ------------------------------------------------------------------
    def kill(self, partition: int) -> None:
        """SIGKILL a worker (chaos path): no cleanup, no flush, no ack."""
        handle = self.handle(partition)
        if handle.process.is_alive():
            os.kill(handle.process.pid, signal.SIGKILL)
            # bounded reap: a SIGKILLed child that still won't join is
            # kernel-stuck; wedging the supervisor on it helps nobody
            handle.process.join(timeout=5)
        handle.dead = True
        handle.channel.close()

    def mark_dead(self, partition: int) -> None:
        """Record a death detected at the RPC layer (EOF mid-call)."""
        handle = self.handle(partition)
        handle.dead = True
        handle.channel.close()
        if handle.process.is_alive():  # zombie guard: EOF but not reaped
            handle.process.join(timeout=5)

    def recover(self, partition: int) -> WorkerHandle:
        """Respawn a dead partition from its WAL shadow."""
        old = self.handle(partition)
        if old.is_alive():
            raise ClusterError(
                f"partition {partition} is alive; kill it first"
            )
        handle = self._spawn(self._factory(partition, True))
        self.handles[partition] = handle
        self.restarts += 1
        return handle

    def ensure(self, partition: int) -> WorkerHandle:
        """The live handle, recovering the partition if it died."""
        handle = self.handle(partition)
        if not handle.is_alive():
            if handle.process.is_alive():
                self.mark_dead(partition)
            handle = self.recover(partition)
        return handle

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Terminate every worker (graceful close is the client's job)."""
        for handle in self.handles.values():
            handle.channel.close()
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
            handle.dead = True
