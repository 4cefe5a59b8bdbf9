"""Router policy: determinism, disjoint ownership, manifest specs."""

import pickle
import subprocess
import sys

import pytest

from repro.cluster.router import (
    HashRouter,
    make_router,
    stable_hash,
)
from repro.errors import ClusterError


class TestStableHash:
    def test_deterministic_within_process(self):
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash((1, "x")) == stable_hash((1, "x"))

    def test_int_and_bool_do_not_collide_by_identity(self):
        # bool is an int subclass; route it by pickle so True != 1
        # hashing stays explicit rather than accidental
        assert stable_hash(True) == stable_hash(True)

    def test_negative_and_large_ints(self):
        assert stable_hash(-1) == stable_hash(-1)
        assert stable_hash(2**70) == stable_hash(2**70)
        assert stable_hash(-1) != stable_hash(1)

    def test_stable_across_interpreter_processes(self):
        # builtin hash() of strings is salted per process; the router
        # hash must not be, or partition placement would change from
        # run to run and break deterministic per-partition accounting
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.cluster.router import stable_hash; "
            "print(stable_hash('partition-me'), stable_hash(987654))"
        )
        outs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                cwd=".",
            ).stdout
            for _ in range(2)
        }
        assert len(outs) == 1
        expected = f"{stable_hash('partition-me')} {stable_hash(987654)}\n"
        assert outs == {expected}


class TestHashRouter:
    def test_covers_all_partitions(self):
        router = HashRouter(4)
        seen = {router.partition_of(k) for k in range(1000)}
        assert seen == {0, 1, 2, 3}

    def test_point_routing_is_a_function(self):
        router = HashRouter(3)
        for key in ["a", 0, -5, (1, 2), frozenset({3})]:
            assert router.partition_of(key) == router.partition_of(key)

    def test_roundtrips_through_spec(self):
        router = HashRouter(5)
        again = make_router(router.spec(), 5)
        assert [again.partition_of(k) for k in range(50)] == [
            router.partition_of(k) for k in range(50)
        ]


class TestMakeRouter:
    def test_shorthands(self):
        assert make_router("hash", 4).kind == "hash"

    def test_partition_count_mismatch_rejected(self):
        with pytest.raises(ClusterError):
            make_router(HashRouter(2), 3)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ClusterError):
            make_router("consistent-hashing", 3)
        with pytest.raises(ClusterError):
            make_router({"kind": "geo"}, 3)

    def test_router_pickles_for_fork(self):
        router = HashRouter(3)
        clone = pickle.loads(pickle.dumps(router))
        assert clone.partition_of(15) == router.partition_of(15)


class TestDisjointOwnership:
    """The merged-scan exactly-once guarantee rests on this invariant."""

    @pytest.mark.parametrize("spec", ["hash"])
    def test_each_key_has_exactly_one_owner(self, spec):
        router = make_router(spec, 5)
        for key in range(0, 10_000, 37):
            owners = [
                p
                for p in range(5)
                if router.partition_of(key) == p
            ]
            assert len(owners) == 1
