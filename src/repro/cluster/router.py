"""Key routers: which partition owns which key.

A router is a pure, deterministic function from keys to partition ids —
the *only* invariant the scatter-gather layer relies on is that the
partitions' key sets are disjoint and exhaustive, which is what makes
the merged range-scan iterator yield each key exactly once (no
cross-partition duplicates to dedupe).

One policy ships, :class:`HashRouter`: stable-hash placement.  It
balances any key distribution, and every search scatters to all
partitions (hash destroys order).

Hashing is **not** Python's builtin ``hash``: that is salted per
process for strings (PYTHONHASHSEED), which would route the same key
differently in different runs and break the benchmarks' deterministic
per-partition-op accounting.  :func:`stable_hash` is CRC32 over a
canonical byte form — identical across processes, runs and machines.
"""

from __future__ import annotations

import pickle
import zlib

from repro.errors import ClusterError


def stable_hash(key: object) -> int:
    """Process-independent hash of a routing key.

    Ints (the common B-tree case) map through their two's-complement
    bytes; everything else through its canonical pickle.  Both are
    stable across interpreter runs, unlike builtin ``hash``.
    """
    if isinstance(key, bool) or not isinstance(key, int):
        payload = pickle.dumps(key, protocol=5)
    else:
        payload = key.to_bytes(
            (key.bit_length() + 8) // 8 + 1, "little", signed=True
        )
    return zlib.crc32(payload)


class Router:
    """Interface: key → partition."""

    #: short spec name persisted in the cluster manifest
    kind = "abstract"

    def __init__(self, partitions: int) -> None:
        if partitions < 1:
            raise ClusterError(f"need >=1 partition, got {partitions}")
        self.partitions = partitions

    def partition_of(self, key: object) -> int:
        """The partition owning ``key``."""
        raise NotImplementedError

    def spec(self) -> dict:
        """Manifest form, reconstructed by :func:`make_router`."""
        return {"kind": self.kind, "partitions": self.partitions}


class HashRouter(Router):
    """Stable-hash placement; every search scatters."""

    kind = "hash"

    def partition_of(self, key: object) -> int:
        return stable_hash(key) % self.partitions


def make_router(spec: "dict | str | Router", partitions: int) -> Router:
    """Build a router from a manifest spec, a shorthand, or pass one
    through.

    Shorthand: ``"hash"``.
    """
    if isinstance(spec, Router):
        if spec.partitions != partitions:
            raise ClusterError(
                f"router covers {spec.partitions} partitions, "
                f"cluster has {partitions}"
            )
        return spec
    if isinstance(spec, str):
        if spec == "hash":
            return HashRouter(partitions)
        raise ClusterError(f"unknown router spec {spec!r}")
    kind = spec.get("kind")
    if kind == "hash":
        return HashRouter(partitions)
    raise ClusterError(f"unknown router spec {spec!r}")
