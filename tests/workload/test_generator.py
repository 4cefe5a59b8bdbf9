"""Workload generators: determinism, distributions, mix invariants."""

import pytest

from repro.ext.btree import Interval
from repro.ext.rtree import Rect
from repro.workload.generator import (
    MixSpec,
    RectKeys,
    ScalarKeys,
    ScalarWorkload,
    SetKeys,
    partition_ops,
)


class TestScalarKeys:
    def test_deterministic_given_seed(self):
        a = [ScalarKeys(7).next_key() for _ in range(50)]
        b = [ScalarKeys(7).next_key() for _ in range(50)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [ScalarKeys(1).next_key() for _ in range(50)]
        b = [ScalarKeys(2).next_key() for _ in range(50)]
        assert a != b

    def test_keys_in_range(self):
        gen = ScalarKeys(3, key_space=1000)
        assert all(0 <= gen.next_key() < 1000 for _ in range(500))

    @pytest.mark.parametrize("dist", ["uniform", "zipf", "clustered"])
    def test_distributions_produce_valid_keys(self, dist):
        gen = ScalarKeys(3, key_space=1000, distribution=dist)
        keys = [gen.next_key() for _ in range(300)]
        assert all(0 <= k < 1000 for k in keys)

    def test_zipf_is_skewed(self):
        gen = ScalarKeys(3, key_space=100_000, distribution="zipf")
        keys = [gen.next_key() for _ in range(2000)]
        low = sum(1 for k in keys if k < 10_000)
        assert low > len(keys) * 0.4  # heavy head

    def test_unknown_distribution_raises(self):
        with pytest.raises(ValueError):
            ScalarKeys(1, distribution="bogus")

    def test_range_query_width(self):
        gen = ScalarKeys(3, key_space=10_000)
        q = gen.range_query(selectivity=0.01)
        assert isinstance(q, Interval)
        assert q.hi - q.lo == 100


class TestRectAndSetKeys:
    def test_rects_inside_unit_square(self):
        gen = RectKeys(5)
        for _ in range(200):
            r = gen.next_key()
            assert 0 <= r.xlo <= r.xhi <= 1
            assert 0 <= r.ylo <= r.yhi <= 1

    def test_window_query_selectivity(self):
        gen = RectKeys(5)
        w = gen.window_query(selectivity=0.04)
        assert isinstance(w, Rect)
        assert w.area == pytest.approx(0.04)

    def test_set_keys_nonempty(self):
        gen = SetKeys(5, vocabulary=50)
        for _ in range(100):
            s = gen.next_key()
            assert s and all(0 <= e < 50 for e in s)


class TestMixAndWorkloads:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixSpec(insert=0.5, search=0.2, delete=0.2)

    def test_scalar_workload_deterministic(self):
        ops_a = list(ScalarWorkload(9).ops(100))
        ops_b = list(ScalarWorkload(9).ops(100))
        assert ops_a == ops_b

    def test_deletes_target_live_pairs(self):
        wl = ScalarWorkload(
            9, mix=MixSpec(insert=0.4, search=0.2, delete=0.4)
        )
        live = {}
        for op in wl.ops(500):
            if op.kind == "insert":
                live[op.rid] = op.key
            elif op.kind == "delete":
                assert live.pop(op.rid) == op.key  # always valid

    def test_rids_unique(self):
        wl = ScalarWorkload(9)
        rids = [
            op.rid for op in wl.ops(300) if op.kind == "insert"
        ]
        assert len(rids) == len(set(rids))

    def test_preload_is_insert_only(self):
        wl = ScalarWorkload(9)
        ops = wl.preload(50)
        assert len(ops) == 50
        assert all(op.kind == "insert" for op in ops)

    def test_partition_round_robin(self):
        wl = ScalarWorkload(9)
        ops = list(wl.ops(10))
        buckets = partition_ops(ops, 3)
        assert [len(b) for b in buckets] == [4, 3, 3]
        assert buckets[0][0] is ops[0]
        assert buckets[1][0] is ops[1]


class TestBatchedMix:
    def test_batch_fractions_join_the_sum(self):
        with pytest.raises(ValueError):
            MixSpec(insert=0.5, search=0.5, multi_put=0.2)
        MixSpec(insert=0.3, search=0.3, multi_put=0.2, multi_get=0.1,
                multi_delete=0.1)  # sums to 1: fine

    def test_batched_ops_emitted_deterministically(self):
        mix = MixSpec(
            insert=0.2,
            search=0.2,
            multi_put=0.3,
            multi_get=0.2,
            multi_delete=0.1,
        )
        a = list(ScalarWorkload(11, mix=mix, batch_size=8).ops(300))
        b = list(ScalarWorkload(11, mix=mix, batch_size=8).ops(300))
        assert a == b
        kinds = {op.kind for op in a}
        assert {"multi_put", "multi_get", "multi_delete"} <= kinds

    def test_multi_put_pairs_have_unique_rids(self):
        mix = MixSpec(insert=0.0, search=0.2, multi_put=0.8)
        rids = [
            rid
            for op in ScalarWorkload(11, mix=mix, batch_size=6).ops(200)
            if op.kind == "multi_put"
            for _, rid in op.pairs
        ]
        assert len(rids) == len(set(rids))

    def test_multi_delete_targets_live_pairs(self):
        mix = MixSpec(insert=0.0, search=0.0, multi_put=0.6, multi_delete=0.4)
        wl = ScalarWorkload(11, mix=mix, batch_size=5)
        live = {rid: key for op in wl.preload(10)
                for key, rid in [(op.key, op.rid)]}
        for op in wl.ops(400):
            if op.kind == "insert":  # emitted only while live is empty
                live[op.rid] = op.key
            elif op.kind == "multi_put":
                for key, rid in op.pairs:
                    live[rid] = key
            elif op.kind == "multi_delete":
                assert op.pairs  # never emitted empty
                for key, rid in op.pairs:
                    assert live.pop(rid) == key

    def test_multi_get_keys_sized_to_batch(self):
        mix = MixSpec(insert=0.0, search=0.0, multi_get=1.0)
        wl = ScalarWorkload(11, mix=mix, batch_size=7)
        wl.preload(20)
        for op in wl.ops(50):
            assert op.kind == "multi_get"
            assert 1 <= len(op.keys) <= 7
